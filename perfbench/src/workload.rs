//! The four workloads: how each builds its inputs, runs through the
//! crates' public entry points, and is checked against its oracle.
//!
//! Virtual-time outputs are the correctness oracle, never a metric: a
//! run whose application result, cleanliness or `RunReport` digest
//! differs from the reference counts as failed.

use crate::layers::Tracer;
use earth_algebra::inputs::katsura;
use earth_algebra::{buchberger, reduce_basis, Poly, Ring, SelectionStrategy};
use earth_apps::groebner::{run_groebner, run_groebner_profiled, GroebnerRun};
use earth_apps::neural::{run_neural, run_neural_profiled, CommsShape, PassMode};
use earth_machine::{FaultPlan, MachineConfig, NodeId};
use earth_nn::Mlp;
use earth_rt::{RunProfile, RunReport, Runtime};
use earth_sim::{Rng, VirtualDuration, VirtualTime};
use earth_traffic::TrafficPlan;
use std::hint::black_box;
use std::time::Instant;

/// Learning rate of the neural application (its private `LEARNING_RATE`),
/// needed to replay training sequentially.
pub(crate) const NN_LEARNING_RATE: f32 = 0.5;
/// Seed salts the neural application applies to its weights and sample
/// stream; the sequential replay must draw the same values.
pub(crate) const NN_WEIGHT_SALT: u64 = 0xD1;
const NN_SAMPLE_SALT: u64 = 0x5A;
/// Largest tolerated gap between parallel and sequential outputs (f32
/// reduction order differs).
const NN_TOLERANCE: f32 = 1e-4;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GroebnerK4,
    Neural720,
    Serve256,
    ServeChaos64,
}

/// Full size is what the benchmark measures; smoke size is the same
/// code path on inputs small enough for a debug-build test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GroebnerK4,
        Workload::Neural720,
        Workload::Serve256,
        Workload::ServeChaos64,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GroebnerK4 => "groebner_k4",
            Workload::Neural720 => "neural_720",
            Workload::Serve256 => "serve_256",
            Workload::ServeChaos64 => "serve_chaos_64",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seed used when none is given on the command line.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::GroebnerK4 => 1,
            Workload::Neural720 => 21,
            Workload::Serve256 | Workload::ServeChaos64 => 11,
        }
    }

    /// The simulated machine the workload runs on.
    fn machine(self, size: Size) -> MachineConfig {
        let smoke = size == Size::Smoke;
        match self {
            // `run_groebner` adds this jitter to its MANNA itself.
            Workload::GroebnerK4 => {
                MachineConfig::manna(if smoke { 8 } else { 20 }).with_jitter(0.03)
            }
            Workload::Neural720 => MachineConfig::manna(if smoke { 8 } else { 20 }),
            Workload::Serve256 => MachineConfig::manna(if smoke { 16 } else { 256 }),
            Workload::ServeChaos64 => {
                let nodes = if smoke { 16 } else { 64 };
                MachineConfig::manna(nodes).with_faults(chaos_plan(nodes / 2))
            }
        }
    }

    /// Build the reference the oracle compares against. Runs once per
    /// process, outside every timed region.
    pub fn prepare(self, size: Size, seed: u64) -> Prepared {
        let cfg = self.machine(size);
        let reference = match self {
            Workload::GroebnerK4 => {
                let (ring, input) = katsura(katsura_arity(size));
                let (basis, _) = buchberger(&ring, &input, SelectionStrategy::Sugar);
                Reference::Basis(reduce_basis(&ring, &basis))
            }
            Workload::Neural720 => {
                let (units, samples) = neural_size(size);
                Reference::Outputs(sequential_outputs(units, samples, seed))
            }
            Workload::Serve256 | Workload::ServeChaos64 => Reference::Drained,
        };
        Prepared {
            workload: self,
            size,
            seed,
            cfg,
            reference,
        }
    }
}

/// Completions of the Gröbner workload per run, each under its own
/// scheduling seed. One completion's host time varies with its
/// scheduling seed (40 seeds measured: IQR/median 0.16), so a run
/// averages over many.
fn groebner_schedules(size: Size) -> u64 {
    match size {
        Size::Full => 32,
        Size::Smoke => 2,
    }
}

/// katsura(4) is 5 polynomials; katsura(3) keeps the smoke run short.
/// katsura(5) was measured too: one completion takes 0.66 s, and its
/// time varies ±32% with the scheduling seed against ±16% for
/// katsura(4), so a run could average over far fewer schedules.
fn katsura_arity(size: Size) -> usize {
    match size {
        Size::Full => 4,
        Size::Smoke => 3,
    }
}

/// `(units, samples)` of the neural workload.
pub(crate) fn neural_size(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (720, 3),
        Size::Smoke => (24, 2),
    }
}

/// The serving stream: `(jobs, offered load in jobs per simulated second)`.
fn stream(workload: Workload, size: Size) -> (u32, f64) {
    match (workload, size) {
        (Workload::Serve256, Size::Full) => (3000, 100_000.0),
        (Workload::ServeChaos64, Size::Full) => (2000, 25_600.0),
        _ => (200, 6_400.0),
    }
}

/// 1% drop, 0.5% duplication, a 2–5 ms crash-restart of node 3, and an
/// 8× fail-slow `slow_node` with every straggler defense armed.
fn chaos_plan(slow_node: u16) -> FaultPlan {
    FaultPlan::new()
        .with_drop(0.01)
        .with_duplicate(0.005)
        .with_crash_restart(
            3,
            VirtualTime::from_ns(2_000_000),
            VirtualTime::from_ns(5_000_000),
        )
        .with_node_slowdown(
            slow_node,
            VirtualTime::from_ns(50_000),
            VirtualTime::from_ns(1_000_000_000),
            8.0,
        )
        .with_slow_detector(3.0, 3)
        .with_hedging(6.0)
        .with_quarantine(VirtualDuration::from_us(20_000))
        .with_speculative_rehoming()
}

/// Sequential replay of the neural application's training: the outputs
/// each sample sees before its weight update.
fn sequential_outputs(units: usize, samples: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut net = Mlp::square(units, seed ^ NN_WEIGHT_SALT);
    sample_stream(units, samples, seed)
        .iter()
        .map(|(x, t)| {
            let out = net.forward(x).output;
            net.train_sample(x, t, NN_LEARNING_RATE);
            out
        })
        .collect()
}

/// The neural application's seeded `(input, target)` stream.
pub(crate) fn sample_stream(units: usize, samples: usize, seed: u64) -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut rng = Rng::new(seed ^ NN_SAMPLE_SALT);
    (0..samples)
        .map(|_| {
            let x = (0..units)
                .map(|_| rng.gen_f64_range(-1.0, 1.0) as f32)
                .collect();
            let t = (0..units)
                .map(|_| rng.gen_f64_range(0.1, 0.9) as f32)
                .collect();
            (x, t)
        })
        .collect()
}

/// What a run's result is checked against.
pub(crate) enum Reference {
    /// The reduced sequential Gröbner basis.
    Basis(Vec<Poly>),
    /// Sequentially replayed network outputs.
    Outputs(Vec<Vec<f32>>),
    /// Serving runs: the stream must drain, every job completing.
    Drained,
}

/// A workload bound to its size, seed, machine and oracle reference.
pub struct Prepared {
    pub(crate) workload: Workload,
    pub(crate) size: Size,
    pub(crate) seed: u64,
    pub(crate) cfg: MachineConfig,
    reference: Reference,
}

/// Inputs built by [`Prepared::setup`], consumed by [`Prepared::run`].
pub(crate) enum Ready {
    Groebner {
        ring: Ring,
        input: Vec<Poly>,
    },
    Neural {
        units: usize,
        samples: usize,
    },
    /// The runtime with the plan installed, and when its set-up began
    /// (the serving entry points include set-up in the run).
    Serve {
        rt: Box<Runtime>,
        since: Instant,
    },
}

/// One run's result, before the oracle looks at it.
pub struct Outcome {
    /// One report per completion: several for Gröbner, one otherwise.
    pub(crate) reports: Vec<RunReport>,
    /// Digest of the run's application results and full `RunReport`s.
    pub digest: u64,
    /// Host seconds the run took through the public entry points.
    pub(crate) run_s: f64,
    /// Gröbner pairs reduced across workers (Gröbner only).
    pub(crate) pairs_reduced: u64,
    /// earth-profile data, one per report when profiling was on.
    pub(crate) profiles: Vec<RunProfile>,
    result: AppResult,
}

impl Outcome {
    /// Sum of `f` over the run's reports.
    pub(crate) fn total(&self, f: impl Fn(&RunReport) -> u64) -> u64 {
        self.reports.iter().map(f).sum()
    }

    /// Simulated events of the whole run.
    pub fn events(&self) -> u64 {
        self.total(|r| r.events)
    }
}

enum AppResult {
    Bases(Ring, Vec<Vec<Poly>>),
    Outputs(Vec<Vec<f32>>),
    Served,
}

impl Prepared {
    /// Build the run's inputs and, for serving, the simulated machine
    /// with the traffic plan installed: everything before the event
    /// loop. The Gröbner and neural entry points build their runtime
    /// internally, so their set-up repeats that work outside them and
    /// drops it: one runtime of the same configuration per completion
    /// for Gröbner; for neural, as `run_neural` does, the runtime, the
    /// seeded network with one clone per node installed as node state,
    /// and the sample stream.
    pub(crate) fn setup(&self, tr: &mut Tracer) -> Ready {
        let since = Instant::now();
        tr.begin("setup");
        let ready = match self.workload {
            Workload::GroebnerK4 => {
                let (ring, input) = katsura(katsura_arity(self.size));
                for seed in self.schedules() {
                    drop(black_box(self.runtime(seed, tr)));
                }
                Ready::Groebner { ring, input }
            }
            Workload::Neural720 => {
                let (units, samples) = neural_size(self.size);
                let mut rt = self.runtime(self.seed, tr);
                tr.begin("nn.build");
                let net = Mlp::square(units, self.seed ^ NN_WEIGHT_SALT);
                for node in 0..self.cfg.nodes {
                    rt.set_state(NodeId(node), net.clone());
                }
                tr.end();
                black_box(sample_stream(units, samples, self.seed));
                drop(black_box(rt));
                Ready::Neural { units, samples }
            }
            Workload::Serve256 | Workload::ServeChaos64 => {
                let mut rt = Box::new(self.runtime(self.seed, tr));
                tr.begin("traffic.install");
                self.plan().install(&mut rt);
                tr.end();
                Ready::Serve { rt, since }
            }
        };
        tr.end();
        ready
    }

    fn runtime(&self, seed: u64, tr: &mut Tracer) -> Runtime {
        tr.begin("core.new");
        let rt = Runtime::new(self.cfg.clone(), seed);
        tr.end();
        rt
    }

    /// Scheduling seeds of the run's completions (Gröbner only).
    fn schedules(&self) -> impl Iterator<Item = u64> {
        let seed = self.seed;
        (0..groebner_schedules(self.size))
            .map(move |k| seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// The serving workloads' traffic plan (the seed drives arrivals).
    fn plan(&self) -> TrafficPlan {
        let (jobs, load) = stream(self.workload, self.size);
        TrafficPlan::new(self.seed)
            .with_jobs(jobs)
            .with_offered_load(load)
    }

    /// Run to completion. `profile` turns on earth-profile collection,
    /// which must leave the report byte-identical.
    pub(crate) fn run(&self, ready: Ready, profile: bool, tr: &mut Tracer) -> Outcome {
        let nodes = self.cfg.nodes;
        let strategy = SelectionStrategy::Sugar;
        match ready {
            Ready::Groebner { ring, input } => {
                let t0 = Instant::now();
                tr.begin("apps.run");
                let runs: Vec<GroebnerRun> = self
                    .schedules()
                    .map(|seed| {
                        if profile {
                            run_groebner_profiled(&ring, &input, nodes, seed, strategy, None)
                        } else {
                            run_groebner(&ring, &input, nodes, seed, strategy, None)
                        }
                    })
                    .collect();
                tr.end();
                let run_s = t0.elapsed().as_secs_f64();
                let pairs_reduced = runs.iter().map(|r| r.pairs_reduced).sum();
                let (mut reports, mut profiles, mut bases) = (Vec::new(), Vec::new(), Vec::new());
                for run in runs {
                    reports.push(run.report);
                    profiles.extend(run.profile);
                    bases.push(run.basis);
                }
                let digest = digest_of(&reports, &format!("{bases:?}"));
                Outcome {
                    reports,
                    digest,
                    run_s,
                    pairs_reduced,
                    profiles,
                    result: AppResult::Bases(ring, bases),
                }
            }
            Ready::Neural { units, samples } => {
                let (mode, shape) = (PassMode::ForwardBackward, CommsShape::Tree);
                let t0 = Instant::now();
                tr.begin("apps.run");
                let run = if profile {
                    run_neural_profiled(units, nodes, samples, self.seed, mode, shape)
                } else {
                    run_neural(units, nodes, samples, self.seed, mode, shape)
                };
                tr.end();
                let run_s = t0.elapsed().as_secs_f64();
                let bits: Vec<Vec<u32>> = run
                    .outputs
                    .iter()
                    .map(|o| o.iter().map(|v| v.to_bits()).collect())
                    .collect();
                let reports = vec![run.report];
                let digest = digest_of(&reports, &format!("{bits:?}"));
                Outcome {
                    reports,
                    digest,
                    run_s,
                    pairs_reduced: 0,
                    profiles: run.profile.into_iter().collect(),
                    result: AppResult::Outputs(run.outputs),
                }
            }
            Ready::Serve { mut rt, since } => {
                if profile {
                    rt.enable_profile();
                }
                tr.begin("core.run");
                let report = rt.run();
                tr.end();
                let run_s = since.elapsed().as_secs_f64();
                let profiles = if profile {
                    vec![rt.take_profile()]
                } else {
                    Vec::new()
                };
                let reports = vec![report];
                let digest = digest_of(&reports, "");
                Outcome {
                    reports,
                    digest,
                    run_s,
                    pairs_reduced: 0,
                    profiles,
                    result: AppResult::Served,
                }
            }
        }
    }

    /// The oracle: the application result matches its reference and the
    /// run left nothing behind.
    pub(crate) fn check(&self, out: &Outcome) -> Result<(), String> {
        if let Some(r) = out.reports.iter().find(|r| !r.is_clean()) {
            return Err(format!(
                "unclean run: {} leftover tokens, {} live frames, {} dropped signals",
                r.leftover_tokens,
                r.live_frames,
                r.nodes.iter().map(|n| n.dropped_signals).sum::<u64>()
            ));
        }
        match (&self.reference, &out.result) {
            (Reference::Basis(want), AppResult::Bases(ring, got)) => {
                for (k, basis) in got.iter().enumerate() {
                    if reduce_basis(ring, basis) != *want {
                        return Err(format!(
                            "completion {k}: reduced basis differs from the sequential one"
                        ));
                    }
                }
            }
            (Reference::Outputs(want), AppResult::Outputs(got)) => {
                if want.len() != got.len() {
                    return Err(format!("{} samples, expected {}", got.len(), want.len()));
                }
                for (s, (w, g)) in want.iter().zip(got).enumerate() {
                    if w.len() != g.len() {
                        return Err(format!(
                            "sample {s}: {} outputs, expected {}",
                            g.len(),
                            w.len()
                        ));
                    }
                    if let Some((a, b)) = g
                        .iter()
                        .zip(w)
                        .find(|(a, b)| (*a - *b).abs() >= NN_TOLERANCE)
                    {
                        return Err(format!("sample {s}: parallel {a} vs sequential {b}"));
                    }
                }
            }
            (Reference::Drained, AppResult::Served) => {
                let r = &out.reports[0];
                let t = r.traffic.as_ref().ok_or("no traffic report")?;
                if !r.traffic_drained() || !t.is_conserved() || t.completed != t.arrived {
                    return Err(format!(
                        "stream did not drain: arrived {} completed {} conserved {}",
                        t.arrived,
                        t.completed,
                        t.is_conserved()
                    ));
                }
            }
            _ => return Err("result kind does not match the workload".into()),
        }
        Ok(())
    }

    /// Sequential Buchberger on the workload's ideal: `(host seconds,
    /// reduction steps, pairs processed)`. Gröbner only.
    pub(crate) fn sequential_buchberger(&self) -> (f64, u64, u64) {
        let (ring, input) = katsura(katsura_arity(self.size));
        let t0 = Instant::now();
        let (basis, stats) = buchberger(&ring, &input, SelectionStrategy::Sugar);
        let secs = t0.elapsed().as_secs_f64();
        black_box(basis);
        (secs, stats.work.steps, stats.pairs_processed as u64)
    }
}

/// FNV-1a over the full `Debug` rendering of the reports plus the
/// application's own result.
fn digest_of(reports: &[RunReport], result: &str) -> u64 {
    let text = format!("{reports:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes().chain(result.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_oracle_rejects_a_wrong_basis() {
        let prep = Workload::GroebnerK4.prepare(Size::Smoke, 1);
        let ready = prep.setup(&mut Tracer::off());
        let mut out = prep.run(ready, false, &mut Tracer::off());
        assert_eq!(prep.check(&out), Ok(()));
        let AppResult::Bases(_, bases) = &mut out.result else {
            panic!("a Gröbner run yields bases");
        };
        // The generators span the same ideal but are not a Gröbner basis.
        bases[0] = katsura(katsura_arity(Size::Smoke)).1;
        assert!(prep.check(&out).is_err());
    }
}
