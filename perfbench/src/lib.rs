//! Host-time benchmark of the EARTH/MANNA simulator.
//!
//! A single-process, single-threaded closed loop with one client: each
//! run of a workload starts when the previous one ends. End-to-end
//! metrics come from untraced runs; per-layer metrics from a separate
//! traced run (see [`layers`]). Every run goes through the workload's
//! correctness oracle (see [`workload`]); a mismatch or a panic counts
//! as a failed run instead of aborting the benchmark.

pub mod layers;
pub mod workload;

use layers::Tracer;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workload::{Outcome, Prepared, Size, Workload};

/// A metric the benchmark emits: name, unit and which way is better.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Emitted by an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("run_s", "s", "lower"),
    m("events_per_s", "1/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Emitted by a traced run (`--trace 1`). A layer the workload does not
/// reach through a separable entry point reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("algebra.buchberger_s", "s", "lower"),
    m("algebra.step_ns", "ns", "lower"),
    m("algebra.pairs_reduced", "count", "lower"),
    m("nn.build_s", "s", "lower"),
    m("nn.train_s", "s", "lower"),
    m("sim.hold_ns", "ns", "lower"),
    m("sim.events", "count", "lower"),
    m("sim.peak_queue_depth", "count", "lower"),
    m("machine.send_ns", "ns", "lower"),
    m("machine.net_messages", "count", "lower"),
    m("machine.net_bytes", "B", "lower"),
    m("machine.link_waits", "count", "lower"),
    m("core.new_s", "s", "lower"),
    m("traffic.install_s", "s", "lower"),
    m("core.run_s", "s", "lower"),
    m("core.run_ns_per_event", "ns", "lower"),
    m("apps.run_s", "s", "lower"),
    m("core.steal_ok_frac", "fraction", "higher"),
    m("core.utilization", "fraction", "higher"),
    m("core.msg_time_frac", "fraction", "lower"),
    m("faults.dropped", "count", "lower"),
    m("faults.duplicated", "count", "lower"),
    m("core.reli.retransmits", "count", "lower"),
    m("core.reli.dup_suppressed", "count", "lower"),
    m("core.recover.checkpoints", "count", "lower"),
    m("core.recover.heartbeats", "count", "lower"),
    m("core.slow.hedges_sent", "count", "lower"),
    m("core.slow.hedge_win_frac", "fraction", "higher"),
    m("core.slow.quarantines", "count", "lower"),
    m("profile.overhead_frac", "fraction", "lower"),
    m("share.setup", "fraction", "lower"),
    m("share.algebra", "fraction", "lower"),
    m("share.nn", "fraction", "lower"),
    m("share.sim", "fraction", "lower"),
    m("share.machine", "fraction", "lower"),
    m("share.core", "fraction", "lower"),
];

/// Set-ups timed (and dropped) before each untraced run: at least
/// `SETUP_MIN_REPS`, and more, up to `SETUP_MAX_REPS`, until they add
/// up to `SETUP_MIN_S`, so microsecond set-ups still time steadily.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 2000;
const SETUP_MIN_S: f64 = 0.01;

/// Untraced runs are at least this many, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

/// The calibration loop's typical time on the host the bounds in
/// `BENCHMARK.json` were set on (a 2-vCPU Xeon VM). Host times are
/// reported in units of that host's speed: each timing is divided by
/// the calibration timed just before it, then multiplied by this.
pub const CALIB_REF_S: f64 = 0.025;

/// What one invocation measures.
pub struct Opts {
    pub workload: Workload,
    pub size: Size,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Runs attempted and failed, and the digest every run must reproduce.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub digest: Option<u64>,
    /// Events of the verified run.
    pub events: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// Set up, run and check one run. A panic, an oracle mismatch, or a
/// digest differing from the first verified run's counts as a failed
/// run.
pub fn attempt(
    prep: &Prepared,
    tr: &mut Tracer,
    profile: bool,
    tally: &mut Tally,
) -> Option<Outcome> {
    tally.attempted += 1;
    let depth = tr.depth();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let ready = prep.setup(tr);
        prep.run(ready, profile, tr)
    }));
    tr.close_to(depth);
    let out = match result {
        Ok(out) => out,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            tally.fail(format!("panic: {msg}"));
            return None;
        }
    };
    // The oracle runs once per distinct result: a later run with the
    // same digest has a byte-identical result and report.
    match tally.digest {
        Some(want) if out.digest != want => {
            tally.fail(format!(
                "digest {:016x} differs from {want:016x}",
                out.digest
            ));
            return None;
        }
        Some(_) => {}
        None => {
            if let Err(why) = prep.check(&out) {
                tally.fail(why);
                return None;
            }
            tally.digest = Some(out.digest);
            tally.events = out.events();
        }
    }
    Some(out)
}

/// Median of `v` (0 when empty).
pub(crate) fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q` of `v` (0 when empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `{"p25": .., "p50": .., "p75": .., "n": ..}` for a sample.
fn spread_json(v: &[f64]) -> String {
    format!(
        r#"{{"p25": {}, "p50": {}, "p75": {}, "n": {}}}"#,
        num(quantile(v, 0.25)),
        num(median(v)),
        num(quantile(v, 0.75)),
        v.len()
    )
}

/// A finite JSON number (non-finite values read 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Fixed work whose time tracks the host's speed phases. It uses no
/// code of the program, so no change to the program moves it: a hold
/// loop on std's `BinaryHeap`, like an event queue's, then merges of
/// sorted sparse vectors with GF(p) coefficients into fresh buffers,
/// like polynomial subtraction. On a shared host both slow down with
/// the simulator, where a pure ALU loop does not. Returns host seconds.
pub fn calibrate() -> f64 {
    const DEPTH: u64 = 50_000;
    const HOLDS: u32 = 100_000;
    const MERGES: u32 = 1_000;
    const P: u64 = 32_003;
    let t0 = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut next = move |bound: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % bound
    };
    let mut heap = BinaryHeap::new();
    for k in 0..DEPTH {
        heap.push(Reverse((next(DEPTH), k)));
    }
    for _ in 0..HOLDS {
        let Reverse((t, k)) = heap.pop().expect("the hold loop keeps the heap full");
        heap.push(Reverse((t + next(DEPTH), k)));
    }
    black_box(heap.len());

    let sparse = |n: usize, next: &mut dyn FnMut(u64) -> u64| {
        let mut v: Vec<(u64, u64)> = (0..n).map(|_| (next(DEPTH), 1 + next(P - 1))).collect();
        v.sort_unstable();
        v.dedup_by_key(|t| t.0);
        v
    };
    let mut a = sparse(400, &mut next);
    for _ in 0..MERGES {
        let b = sparse(64, &mut next);
        let c = 1 + next(P - 1);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            if j == b.len() || (i < a.len() && a[i].0 < b[j].0) {
                out.push(a[i]);
                i += 1;
            } else if i == a.len() || b[j].0 < a[i].0 {
                out.push((b[j].0, b[j].1 * c % P));
                j += 1;
            } else {
                let v = (a[i].1 + b[j].1 * c) % P;
                if v != 0 {
                    out.push((a[i].0, v));
                }
                (i, j) = (i + 1, j + 1);
            }
        }
        out.truncate(400);
        a = out;
    }
    black_box(a.len());
    t0.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One invocation's result.
pub struct BenchResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` for every metric of the mode, in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The digest of the verified result every run reproduced (0 if none).
    pub digest: u64,
    /// A JSON object with the detail behind the metrics: host
    /// fingerprint, quartiles and sample counts, digest, first failure.
    pub detail: String,
    /// The spans of a traced run (empty when untraced).
    pub tracer: Tracer,
}

impl BenchResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let catalogue = END_TO_END.iter().chain(PER_LAYER);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let unit = catalogue
                    .clone()
                    .find(|d| d.name == *name)
                    .map_or("", |d| d.unit);
                format!(r#""{name}": {{"value": {}, "unit": "{unit}"}}"#, num(*v))
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Measure one workload for `opts.seconds` (at least a few runs).
pub fn run_bench(opts: &Opts) -> BenchResult {
    let prep = opts.workload.prepare(opts.size, opts.seed);
    let mut tally = Tally::default();
    let mut tracer = if opts.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };

    // Warm-up: lets caches fill and lazy set-up finish before timing.
    attempt(&prep, &mut Tracer::off(), false, &mut tally);
    let mut calib_s: Vec<f64> = Vec::new();

    let mut detail = String::new();
    let metrics = if opts.trace {
        detail.push_str(r#""mode": "traced""#);
        calib_s.extend((0..3).map(|_| calibrate()));
        layers::traced(&prep, &mut tally, opts.seconds, &mut tracer)
    } else {
        // Raw host seconds, and the same scaled by the calibration
        // timed just before them.
        let (mut setup_s, mut run_s) = (Vec::new(), Vec::new());
        let (mut setup_cal, mut run_cal) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut runs = 0;
        while runs < MIN_RUNS || start.elapsed().as_secs_f64() < opts.seconds {
            runs += 1;
            let calib = calibrate();
            calib_s.push(calib);
            let scale = CALIB_REF_S / calib;
            let (mut reps, mut spent) = (0, 0.0);
            while reps < SETUP_MIN_REPS || (spent < SETUP_MIN_S && reps < SETUP_MAX_REPS) {
                let t0 = Instant::now();
                let ready = prep.setup(&mut tracer);
                let took = t0.elapsed().as_secs_f64();
                drop(ready);
                setup_s.push(took);
                setup_cal.push(took * scale);
                (reps, spent) = (reps + 1, spent + took);
            }
            if let Some(out) = attempt(&prep, &mut tracer, false, &mut tally) {
                run_s.push(out.run_s);
                run_cal.push(out.run_s * scale);
            }
        }
        let run = median(&run_cal);
        let _ = write!(
            detail,
            r#""mode": "untraced", "run_s": {}, "setup_s": {}, "raw_run_s": {}, "raw_setup_s": {}"#,
            spread_json(&run_cal),
            spread_json(&setup_cal),
            spread_json(&run_s),
            spread_json(&setup_s)
        );
        vec![
            ("run_s", run),
            ("events_per_s", tally.events as f64 / run),
            ("setup_s", median(&setup_cal)),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    };

    let _ = write!(
        detail,
        r#", "workload": "{}", "seed": {}, "events": {}, "digest": "{:016x}", "failed_frac": {}, "host": {{"nproc": {}, "calib_s": {}, "profile": "{}"}}, "first_error": {}"#,
        opts.workload.name(),
        opts.seed,
        tally.events,
        tally.digest.unwrap_or(0),
        num(tally.failed as f64 / tally.attempted.max(1) as f64),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        spread_json(&calib_s),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        tally
            .first_error
            .as_deref()
            .map_or("null".to_string(), json_str),
    );
    BenchResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        digest: tally.digest.unwrap_or(0),
        detail: format!("{{{detail}}}"),
        tracer,
    }
}
