//! Regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--json] [table1|fig2|table2|fig4|fig5|table3|fig7|fig8|ablation|dual|profile|faults|crashes|scale|traffic|overload|stragglers|bench|all]
//! ```
//!
//! `--quick` shrinks matrices and seed counts (same shapes, CI speed).
//! `--json` emits one machine-readable JSON record per experiment
//! instead of the text tables.
//!
//! `profile` (not part of `all`) runs the earth-profile demo: the
//! overhead breakdown and utilization timeline for seeded eigenvalue
//! and Gröbner runs; with `--json` it emits the eigenvalue run's
//! Chrome-trace-format JSON (load in Perfetto or `chrome://tracing`).
//!
//! `faults` (not part of `all`) runs the fault-plane degradation sweep:
//! a fixed-seed eigenvalue workload under a drop-rate × node-count
//! grid, with the reliability layer keeping every cell's results
//! bit-identical to the fault-free baseline.
//!
//! `crashes` (not part of `all`) runs the availability sweep: the same
//! workload with one node crash-stopped at a grid of crash times ×
//! checkpoint intervals, with the checkpoint/recovery plane keeping
//! every cell's results bit-identical to the fault-free baseline.
//!
//! `bench` (not part of `all`) runs the performance-baseline sweeps over
//! every application variant and prints the `BENCH_<date>.json` document
//! (regenerate the committed baseline with `repro --json bench`).
//! `--smoke` shrinks the workloads to CI size; `--check-schema FILE`
//! additionally validates that `FILE`'s schema matches the emitted
//! document, exiting nonzero on drift.
//!
//! `scale` (not part of `all`) runs the topology scale sweep:
//! speedup-vs-nodes curves for all three applications across the four
//! interconnects, up to 1024 nodes (`--smoke` caps the sweep at 256
//! nodes). Fixed-seed, so `repro scale --json` is a diffable artifact.
//!
//! `traffic` (not part of `all`) runs the traffic-plane sweep: open-loop
//! mixed-class job streams through the admission/queueing front-end
//! over an offered-load × machine-size grid, with per-class p50/p95/p99
//! sojourn digests and lossy + crashed degradation variants (`--smoke`
//! shrinks the streams to CI size). Fixed-seed, so `repro traffic
//! --json` is a diffable artifact.
//!
//! `overload` (not part of `all`) runs the overload-control sweep:
//! goodput vs offered load for the same deadlined, retrying job stream
//! with the defenses (deadline shedding + per-tenant circuit breaker)
//! off and on, plus lossy + crashed chaos variants at the heaviest
//! load (`--smoke` shrinks the streams to CI size). Fixed-seed, so
//! `repro overload --json` is a diffable artifact.
//!
//! `stragglers` (not part of `all`) runs the gray-failure sweep:
//! goodput vs fail-slow severity for the same deadlined job stream with
//! the straggler defenses (outlier detection, hedged retransmits,
//! quarantine-aware placement, speculative re-homing) off and on, over
//! a slowdown-factor × machine-size grid, plus lossy + crashed chaos
//! variants at the heaviest point (`--smoke` shrinks the streams to CI
//! size). Fixed-seed, so `repro stragglers --json` is a diffable
//! artifact.

use earth_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    let what: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.as_str())
        .collect();
    let all = what.is_empty() || what.contains(&"all");
    let want = |name: &str| all || what.contains(&name);

    if !json {
        println!("=== EARTH-MANNA reproduction ({:?} scale) ===\n", scale);
    }

    if want("table1") {
        let t = table1(scale);
        println!("{}", if json { t.to_json() } else { t.render() });
    }
    if want("fig2") {
        let f = fig2(scale);
        println!("{}", if json { f.to_json() } else { f.render() });
    }
    if want("table2") {
        let t = table2();
        println!("{}", if json { t.to_json() } else { t.render() });
    }
    if want("fig4") {
        let curves = fig4(scale);
        if json {
            println!("{}", groebner_curves_to_json("fig4", &curves));
        } else {
            println!(
                "{}",
                render_groebner_curves(
                    "Figure 4: Groebner speedups, EARTH (paper limits: ~9@11 Lazard, ~12@12 K4, ~12.5@14 K5)",
                    &curves
                )
            );
        }
    }
    if want("fig5") {
        let curves = fig5(scale);
        if json {
            println!("{}", groebner_curves_to_json("fig5", &curves));
        } else {
            println!(
                "{}",
                render_groebner_curves(
                    "Figure 5: Groebner speedups under message-passing overheads (paper: EARTH scales, 300-1000us collapse except coarse-grained Katsura-5)",
                    &curves
                )
            );
        }
    }
    if want("table3") {
        let t = table3(scale);
        println!("{}", if json { t.to_json() } else { t.render() });
    }
    if want("fig7") {
        let curves = fig7(scale);
        if json {
            println!("{}", neural_curves_to_json("fig7", &curves));
        } else {
            println!(
                "{}",
                render_neural_curves(
                    "Figure 7: NN forward-only speedups (paper: 11@16 for 80u, 17@20 for 200u)",
                    &curves
                )
            );
        }
    }
    if want("fig8") {
        let curves = fig8(scale);
        if json {
            println!("{}", neural_curves_to_json("fig8", &curves));
        } else {
            println!(
                "{}",
                render_neural_curves(
                    "Figure 8: NN forward+backward speedups (paper: 10@16 for 80u, 14.5@20 for 200u)",
                    &curves
                )
            );
        }
    }
    if want("ablation") {
        let a = comms_ablation(scale);
        println!("{}", if json { a.to_json() } else { a.render() });
    }
    if want("dual") {
        println!("{}", dual_check(scale).render());
    }
    // Deliberately excluded from `all`: the demo's value is its stable,
    // seed-exact output, not paper reproduction.
    if what.contains(&"profile") {
        let d = profile_demo();
        println!("{}", if json { d.to_json() } else { d.render() });
    }
    if what.contains(&"faults") {
        let t = faults_table();
        println!("{}", if json { t.to_json() } else { t.render() });
    }
    if what.contains(&"crashes") {
        let t = crashes_table();
        println!("{}", if json { t.to_json() } else { t.render() });
    }
    if what.contains(&"scale") {
        let t = if smoke { scale_smoke() } else { scale_table() };
        println!("{}", if json { t.to_json() } else { t.render() });
    }
    if what.contains(&"traffic") {
        let t = if smoke {
            traffic_smoke()
        } else {
            traffic_table()
        };
        println!("{}", if json { t.to_json() } else { t.render() });
    }
    if what.contains(&"overload") {
        let t = if smoke {
            overload_smoke()
        } else {
            overload_table()
        };
        println!("{}", if json { t.to_json() } else { t.render() });
    }
    if what.contains(&"stragglers") {
        let t = if smoke {
            stragglers_smoke()
        } else {
            stragglers_table()
        };
        println!("{}", if json { t.to_json() } else { t.render() });
    }
    if what.contains(&"bench") {
        let doc = sweeps_to_json(&run_sweeps(smoke));
        if let Some(pos) = args.iter().position(|a| a == "--check-schema") {
            let path = args
                .get(pos + 1)
                .expect("--check-schema needs a file argument");
            let committed =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            let want = schema_signature(committed.trim())
                .unwrap_or_else(|e| panic!("{path} is not valid baseline JSON: {e}"));
            let got = schema_signature(&doc).expect("emitter produced invalid JSON");
            if want != got {
                eprintln!("bench schema drift: {path} does not match the emitter");
                eprintln!("  committed: {want}");
                eprintln!("  emitted:   {got}");
                std::process::exit(1);
            }
            eprintln!("bench schema OK against {path}");
        }
        println!("{doc}");
    }
}
