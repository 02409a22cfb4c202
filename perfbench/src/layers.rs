//! Outside-in per-layer timing. Spans are recorded around the
//! benchmark's own calls into each crate (nothing inside the program is
//! instrumented), kept in memory, and written out when the run ends.
//!
//! A traced iteration has three roots sharing one run id: `run` (an
//! ordinary run: set-up plus the event loop), `run.profiled` (the same
//! run with earth-profile on) and `probe` (standalone loops that time
//! one layer at the shape the run had).

use crate::workload::{
    neural_size, sample_stream, Outcome, Prepared, Workload, NN_LEARNING_RATE, NN_WEIGHT_SALT,
};
use crate::{attempt, median, Tally};
use earth_machine::{Network, NodeId};
use earth_nn::Mlp;
use earth_sim::{Rng, SimQueue, VirtualDuration, VirtualTime};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Bounds on the probe loop lengths: long enough to time steadily, short
/// enough that a traced iteration stays near two run lengths.
const PROBE_MIN_OPS: u64 = 200_000;
const PROBE_MAX_OPS: u64 = 1_000_000;

/// Traced iterations are at least this many, whatever `--seconds` says.
const MIN_TRACED_ITERATIONS: u32 = 1;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub run: u32,
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the outermost enclosing span (itself for a root).
    pub root: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. A disabled tracer records nothing, so the
/// untraced runs share the traced runs' code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    /// Tag the spans that follow with run id `run`.
    pub(crate) fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    pub(crate) fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let root = parent.map_or(idx, |p| self.spans[p].root);
        self.spans.push(Span {
            run: self.run,
            name,
            parent,
            root,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
    }

    /// Close the innermost open span.
    pub(crate) fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self
            .open
            .pop()
            .expect("Tracer::end without a matching begin");
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// How many spans are open.
    pub(crate) fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close open spans until `depth` remain: a run that panicked
    /// mid-span leaves its spans unbalanced.
    pub(crate) fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.end();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans called `name` below a root called `root`
    /// in run `run`.
    pub(crate) fn total_s(&self, run: u32, root: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name && self.spans[s.root].name == root)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id": {i}, "run": {}, "name": "{}", "parent": {parent}, "start_ns": {}, "end_ns": {}}}"#,
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// `count` clamped into the probe bounds.
fn probe_ops(count: u64) -> u64 {
    count.clamp(PROBE_MIN_OPS, PROBE_MAX_OPS)
}

/// Hold loop on the runtime's queue kind: `depth` pending events, then
/// `ops` pop-then-push pairs whose time increments keep the run's event
/// density (`mean_gap_ns` between a pop and the event it schedules).
fn sim_hold(prep: &Prepared, depth: u64, ops: u64, mean_gap_ns: u64) {
    let mut rng = Rng::new(prep.seed ^ 0x686F_6C64);
    let mut q: SimQueue<u64> = SimQueue::new(prep.cfg.queue);
    let span = 2 * mean_gap_ns.max(1);
    for e in 0..depth.max(1) {
        q.push(VirtualTime::from_ns(rng.gen_range(span)), e);
    }
    for _ in 0..ops {
        let (t, e) = q.pop().expect("hold loop keeps the queue non-empty");
        q.push(t + VirtualDuration::from_ns(rng.gen_range(span)), e);
    }
    black_box(q.len());
}

/// Send loop on a fresh network of the workload's configuration (fault
/// plan included): `ops` messages of `bytes` bytes between random node
/// pairs, spaced `gap_ns` apart.
fn machine_send(prep: &Prepared, ops: u64, bytes: u32, gap_ns: u64) {
    let nodes = u64::from(prep.cfg.nodes);
    let mut net = Network::new(prep.cfg.clone(), prep.seed);
    let mut rng = Rng::new(prep.seed ^ 0x7365_6E64);
    let faulty = net.has_faults();
    let mut now = VirtualTime::ZERO;
    for _ in 0..ops {
        let src = rng.gen_range(nodes);
        let dst = (src + 1 + rng.gen_range(nodes.max(2) - 1)) % nodes;
        let (src, dst) = (NodeId(src as u16), NodeId(dst as u16));
        if faulty {
            black_box(net.send_resolved(now, src, dst, bytes));
        } else {
            black_box(net.send_detailed(now, src, dst, bytes));
        }
        now += VirtualDuration::from_ns(gap_ns);
    }
    black_box(net.stats().messages);
}

/// The traced run: iterate `run`, `run.profiled` and `probe` until
/// `seconds` have passed; then reduce each per-layer metric to its
/// median over iterations. Every run still goes through the oracle.
pub(crate) fn traced(
    prep: &Prepared,
    tally: &mut Tally,
    seconds: f64,
    tr: &mut Tracer,
) -> Vec<(&'static str, f64)> {
    let start = Instant::now();
    let mut rows: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut run_id = 0u32;
    while run_id < MIN_TRACED_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        tr.set_run(run_id);
        run_id += 1;
        tr.begin("run");
        let plain = attempt(prep, tr, false, tally);
        tr.end();
        tr.begin("run.profiled");
        let profiled = attempt(prep, tr, true, tally);
        tr.end();
        let (Some(plain), Some(profiled)) = (plain, profiled) else {
            continue;
        };
        tr.begin("probe");
        let row = probe_row(prep, tr, &plain, &profiled);
        tr.end();
        rows.push(row);
    }
    crate::PER_LAYER
        .iter()
        .map(|m| {
            let vals: Vec<f64> = rows
                .iter()
                .map(|r| {
                    r.iter()
                        .find(|(n, _)| *n == m.name)
                        .map_or(0.0, |&(_, v)| v)
                })
                .collect();
            (m.name, median(&vals))
        })
        .collect()
}

/// Run this iteration's layer probes and derive its per-layer row.
fn probe_row(
    prep: &Prepared,
    tr: &mut Tracer,
    plain: &Outcome,
    profiled: &Outcome,
) -> Vec<(&'static str, f64)> {
    let run = tr.run;
    let reports = &plain.reports;
    let events = plain.events();
    let net_messages = plain.total(|r| r.net_messages);
    let net_bytes = plain.total(|r| r.net_bytes);
    let peak_depth = reports
        .iter()
        .map(|r| r.peak_queue_depth)
        .max()
        .unwrap_or(0);
    let elapsed_ns: f64 = reports.iter().map(|r| r.elapsed.as_us_f64() * 1e3).sum();

    let hold_ops = probe_ops(events);
    let gap = (elapsed_ns * peak_depth as f64 / events.max(1) as f64) as u64;
    tr.begin("sim.hold");
    sim_hold(prep, peak_depth, hold_ops, gap);
    tr.end();

    let send_ops = probe_ops(net_messages);
    let bytes = (net_bytes / net_messages.max(1)).max(1) as u32;
    let send_gap = (elapsed_ns / net_messages.max(1) as f64) as u64;
    tr.begin("machine.send");
    machine_send(prep, send_ops, bytes, send_gap);
    tr.end();

    let mut algebra = (0.0, 0.0, 0.0); // (seconds, ns per step, share estimate in s)
    let mut nn_train_s = 0.0;
    match prep.workload {
        Workload::GroebnerK4 => {
            tr.begin("algebra.buchberger");
            let (_, steps, seq_pairs) = prep.sequential_buchberger();
            tr.end();
            let secs = tr.total_s(run, "probe", "algebra.buchberger");
            let per_pair = secs / seq_pairs.max(1) as f64;
            algebra = (
                secs,
                secs * 1e9 / steps.max(1) as f64,
                per_pair * plain.pairs_reduced as f64,
            );
        }
        Workload::Neural720 => {
            let (units, samples) = neural_size(prep.size);
            let mut net = Mlp::square(units, prep.seed ^ NN_WEIGHT_SALT);
            let stream = sample_stream(units, samples, prep.seed);
            tr.begin("nn.train");
            for (x, t) in &stream {
                black_box(net.forward(x));
                net.train_sample(x, t, NN_LEARNING_RATE);
            }
            tr.end();
            nn_train_s = tr.total_s(run, "probe", "nn.train");
        }
        Workload::Serve256 | Workload::ServeChaos64 => {}
    }

    let new_s = tr.total_s(run, "run", "core.new");
    let install_s = tr.total_s(run, "run", "traffic.install");
    let core_run_s = tr.total_s(run, "run", "core.run");
    let hold_ns = tr.total_s(run, "probe", "sim.hold") * 1e9 / hold_ops as f64;
    let send_ns = tr.total_s(run, "probe", "machine.send") * 1e9 / send_ops as f64;

    // Outside-in estimate of where `run_s` went: each probed layer's
    // per-operation cost times the operations the run made; `core` is
    // the remainder (dispatch, planes, application glue).
    let run_s = plain.run_s;
    let setup_est = new_s + install_s;
    let sim_est = hold_ns * events as f64 * 1e-9;
    let machine_est = send_ns * net_messages as f64 * 1e-9;
    // The run's set-up span built the network and its per-node clones.
    let nn_build_s = tr.total_s(run, "run", "nn.build");
    let nn_est = nn_build_s + nn_train_s;
    let core_est = (run_s - setup_est - sim_est - machine_est - algebra.2 - nn_est).max(0.0);
    let share = |s: f64| s / run_s;

    let steal_ok = plain.total(|r| r.nodes.iter().map(|n| n.steals_ok).sum());
    let steal_tries = steal_ok + plain.total(|r| r.nodes.iter().map(|n| n.steal_nacks).sum());
    let (msg, work) =
        profiled
            .profiles
            .iter()
            .zip(&profiled.reports)
            .fold((0.0, 0.0), |(msg, work), (p, r)| {
                let m: f64 = p.nodes.iter().map(|n| n.msg_time().as_us_f64()).sum();
                (msg + m, work + p.total_work(r).as_us_f64())
            });
    let msg_time_frac = msg / work.max(f64::MIN_POSITIVE);
    let utilization =
        reports.iter().map(|r| r.utilization()).sum::<f64>() / reports.len().max(1) as f64;
    let hedges_sent = plain.total(|r| r.total_hedges_sent());
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    vec![
        ("algebra.buchberger_s", algebra.0),
        ("algebra.step_ns", algebra.1),
        ("algebra.pairs_reduced", plain.pairs_reduced as f64),
        ("nn.build_s", nn_build_s),
        ("nn.train_s", nn_train_s),
        ("sim.hold_ns", hold_ns),
        ("sim.events", events as f64),
        ("sim.peak_queue_depth", peak_depth as f64),
        ("machine.send_ns", send_ns),
        ("machine.net_messages", net_messages as f64),
        ("machine.net_bytes", net_bytes as f64),
        ("machine.link_waits", plain.total(|r| r.link_waits) as f64),
        ("core.new_s", new_s),
        ("traffic.install_s", install_s),
        ("core.run_s", core_run_s),
        (
            "core.run_ns_per_event",
            core_run_s * 1e9 / events.max(1) as f64,
        ),
        ("apps.run_s", tr.total_s(run, "run", "apps.run")),
        ("core.steal_ok_frac", ratio(steal_ok, steal_tries)),
        ("core.utilization", utilization),
        ("core.msg_time_frac", msg_time_frac),
        ("faults.dropped", plain.total(|r| r.net_dropped) as f64),
        (
            "faults.duplicated",
            plain.total(|r| r.net_duplicated) as f64,
        ),
        (
            "core.reli.retransmits",
            plain.total(|r| r.total_retransmits()) as f64,
        ),
        (
            "core.reli.dup_suppressed",
            plain.total(|r| r.total_dup_suppressed()) as f64,
        ),
        (
            "core.recover.checkpoints",
            plain.total(|r| r.total_checkpoints()) as f64,
        ),
        (
            "core.recover.heartbeats",
            plain.total(|r| r.total_heartbeats()) as f64,
        ),
        ("core.slow.hedges_sent", hedges_sent as f64),
        (
            "core.slow.hedge_win_frac",
            ratio(plain.total(|r| r.total_hedges_won()), hedges_sent),
        ),
        (
            "core.slow.quarantines",
            plain.total(|r| r.total_quarantines()) as f64,
        ),
        ("profile.overhead_frac", profiled.run_s / run_s - 1.0),
        ("share.setup", share(setup_est)),
        ("share.algebra", share(algebra.2)),
        ("share.nn", share(nn_est)),
        ("share.sim", share(sim_est)),
        ("share.machine", share(machine_est)),
        ("share.core", share(core_est)),
    ]
}
