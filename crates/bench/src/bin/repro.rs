//! Regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--json] [--smoke] [table1|fig2|table2|fig4|fig5|table3|fig7|fig8|ablation|dual|profile|faults|crashes|scale|traffic|overload|stragglers|all]
//! ```
//!
//! `--quick` shrinks matrices and seed counts (same shapes, CI speed).
//! `--json` emits one machine-readable JSON record per experiment
//! instead of the text tables (`dual` always prints text).
//! `--smoke` shrinks the `scale`, `traffic`, `overload` and
//! `stragglers` sweeps to CI size. No name, or `all`, runs the paper's
//! experiments `table1` through `dual`. Experiments run in the order
//! above, whatever the order of the arguments. An unknown name or flag
//! prints the usage line to stderr and exits with status 2.
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

/// Text table or JSON record, whichever `--json` asks for.
trait Show {
    fn show(&self, json: bool) -> String;
}

macro_rules! show_via_methods {
    ($($t:ty),*) => {$(
        impl Show for $t {
            fn show(&self, json: bool) -> String {
                if json { self.to_json() } else { self.render() }
            }
        }
    )*};
}

show_via_methods!(
    Table1,
    Fig2,
    Table2,
    Table3,
    CommsAblation,
    ProfileDemo,
    FaultsTable,
    CrashesTable,
    ScaleTable,
    TrafficTable,
    OverloadTable,
    StragglerTable
);

fn groebner(json: bool, experiment: &str, title: &str, curves: &[GroebnerCurve]) -> String {
    if json {
        groebner_curves_to_json(experiment, curves)
    } else {
        render_groebner_curves(title, curves)
    }
}

fn neural(json: bool, experiment: &str, title: &str, curves: &[NeuralCurve]) -> String {
    if json {
        neural_curves_to_json(experiment, curves)
    } else {
        render_neural_curves(title, curves)
    }
}

/// The CI-size variant of a sweep under `--smoke`, the full one otherwise.
fn sized<T>(smoke: bool, small: fn() -> T, full: fn() -> T) -> T {
    if smoke {
        small()
    } else {
        full()
    }
}

/// How one experiment runs and prints, given `(scale, smoke, json)`.
type Run = fn(Scale, bool, bool) -> String;

/// Every experiment, in the order they run and print:
/// `(name, whether all includes it, run)`. The experiments left out of
/// `all` are demos and sweeps whose value is their stable, seed-exact
/// output, not paper reproduction.
const EXPERIMENTS: &[(&str, bool, Run)] = &[
    ("table1", true, |s, _, j| table1(s).show(j)),
    ("fig2", true, |s, _, j| fig2(s).show(j)),
    ("table2", true, |_, _, j| table2().show(j)),
    ("fig4", true, |s, _, j| {
        let title = "Figure 4: Groebner speedups, EARTH (paper limits: ~9@11 Lazard, ~12@12 K4, ~12.5@14 K5)";
        groebner(j, "fig4", title, &fig4(s))
    }),
    ("fig5", true, |s, _, j| {
        let title = "Figure 5: Groebner speedups under message-passing overheads (paper: EARTH scales, 300-1000us collapse except coarse-grained Katsura-5)";
        groebner(j, "fig5", title, &fig5(s))
    }),
    ("table3", true, |s, _, j| table3(s).show(j)),
    ("fig7", true, |s, _, j| {
        let title = "Figure 7: NN forward-only speedups (paper: 11@16 for 80u, 17@20 for 200u)";
        neural(j, "fig7", title, &fig7(s))
    }),
    ("fig8", true, |s, _, j| {
        let title =
            "Figure 8: NN forward+backward speedups (paper: 10@16 for 80u, 14.5@20 for 200u)";
        neural(j, "fig8", title, &fig8(s))
    }),
    ("ablation", true, |s, _, j| comms_ablation(s).show(j)),
    ("dual", true, |s, _, _| dual_check(s).render()),
    ("profile", false, |_, _, j| profile_demo().show(j)),
    ("faults", false, |_, _, j| faults_table().show(j)),
    ("crashes", false, |_, _, j| crashes_table().show(j)),
    ("scale", false, |_, smoke, j| {
        sized(smoke, scale_smoke, scale_table).show(j)
    }),
    ("traffic", false, |_, smoke, j| {
        sized(smoke, traffic_smoke, traffic_table).show(j)
    }),
    ("overload", false, |_, smoke, j| {
        sized(smoke, overload_smoke, overload_table).show(j)
    }),
    ("stragglers", false, |_, smoke, j| {
        sized(smoke, stragglers_smoke, stragglers_table).show(j)
    }),
];

const FLAGS: [&str; 3] = ["--quick", "--json", "--smoke"];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, ..)| name).collect();
    let in_all: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|&&(_, in_all, _)| in_all)
        .map(|&(name, ..)| name)
        .collect();
    format!(
        "usage: repro [{}] [{}|all]\n  no name or `all` runs: {}",
        FLAGS.join("] ["),
        names.join("|"),
        in_all.join(" ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, names): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with("--"));
    let known = |n: &&str| *n == "all" || EXPERIMENTS.iter().any(|&(name, ..)| name == *n);
    let bad_flag = flags.iter().find(|f| !FLAGS.contains(f));
    if let Some(bad) = bad_flag.or_else(|| names.iter().find(|n| !known(n))) {
        eprintln!("repro: unknown argument `{bad}`\n{}", usage());
        std::process::exit(2);
    }
    let scale = if flags.contains(&"--quick") {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let json = flags.contains(&"--json");
    let smoke = flags.contains(&"--smoke");
    let all = names.is_empty() || names.contains(&"all");

    if !json {
        println!("=== EARTH-MANNA reproduction ({:?} scale) ===\n", scale);
    }
    for &(name, in_all, run) in EXPERIMENTS {
        if (all && in_all) || names.contains(&name) {
            println!("{}", run(scale, smoke, json));
        }
    }
}
