//! The neural-network application (§3.3): unit parallelism on EARTH.
//!
//! The 3-layer fully-connected net is *sliced*: each machine node owns a
//! contiguous range of hidden units and of output units (weights live in
//! node-local memory for the whole run — "long-term data ... maintained
//! per node"). Communication is centralized through node 0, which
//! collects each layer's activations and distributes the next layer's
//! input, organized as a binary tree ("in comparison to an earlier
//! version using sequential communications, speedups increased — for 80
//! units from a maximum of 8 to a maximum of 12"); the sequential shape
//! is kept as an ablation ([`CommsShape::Sequential`]).
//!
//! Per training sample (forward + backward):
//! 1. central broadcasts the input vector; every node computes its hidden
//!    slice and split-phase-stores it into central's buffer;
//! 2. central broadcasts the assembled hidden vector (plus the target for
//!    backprop); every node computes its output slice — and, for
//!    backprop, its output deltas, weight updates, and its *partial*
//!    hidden-error vector (different values for different units: the
//!    costlier backward communication the paper notes);
//! 3. (backward only) central sums the partials and broadcasts the hidden
//!    error; every node updates its hidden slice.
//!
//! The computation is the real `f32` arithmetic of `earth-nn`; forward
//! activations are validated bit-for-bit against the sequential network.

use earth_machine::NodeId;
use earth_nn::cost::{backward_slice_cost, error_calc_cost, forward_slice_cost};
use earth_nn::net::{sigmoid_prime, Mlp};
use earth_nn::slice::{partition, UnitRange};
use earth_rt::{
    ArgsReader, ArgsWriter, Ctx, FuncId, GlobalAddr, RunOpts, SlotId, SlotRef, ThreadId, ThreadedFn,
};
use earth_sim::{Rng, VirtualDuration, VirtualTime};

/// Which passes each sample performs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PassMode {
    /// Forward only (Fig. 7).
    Forward,
    /// Forward + backpropagation + weight update (Fig. 8).
    ForwardBackward,
}

/// Shape of the central node's collect/distribute communication.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommsShape {
    /// Central sends to every node in sequence (the paper's "earlier
    /// version").
    Sequential,
    /// Binary-tree forwarding (the published configuration).
    Tree,
}

const LEARNING_RATE: f32 = 0.5;

fn f32s_to_bytes(v: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn bytes_to_f32s(b: &[u8]) -> Vec<f32> {
    b.chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Node-local state.
struct NeuralState {
    net: Mlp,
    hidden_range: UnitRange,
    output_range: UnitRange,
    /// Last input received (needed for the hidden weight update).
    last_input: Vec<f32>,
    /// Last full hidden vector received (needed for output-layer math and
    /// the hidden delta).
    last_hidden: Vec<f32>,
    /// Central only: per-sample log of full output vectors.
    outputs_log: Vec<Vec<f32>>,
}

/// Header every phase message carries besides its payload.
struct PhaseHeader {
    phase: u8,
    shape: CommsShape,
    reply_addr: GlobalAddr,
    reply_slot: SlotRef,
    partial_base: GlobalAddr,
}

fn write_header(w: &mut ArgsWriter, h: &PhaseHeader) {
    w.u8(h.phase)
        .u8(match h.shape {
            CommsShape::Sequential => 0,
            CommsShape::Tree => 1,
        })
        .addr(h.reply_addr)
        .slot(h.reply_slot)
        .addr(h.partial_base);
}

fn read_header(r: &mut ArgsReader<'_>) -> PhaseHeader {
    PhaseHeader {
        phase: r.u8(),
        shape: if r.u8() == 0 {
            CommsShape::Sequential
        } else {
            CommsShape::Tree
        },
        reply_addr: r.addr(),
        reply_slot: r.slot(),
        partial_base: r.addr(),
    }
}

/// Transient per-phase worker frame (one per node per phase message).
struct PhaseWork {
    header: PhaseHeader,
    payload: Box<[u8]>,
    me: FuncId,
}

impl PhaseWork {
    fn forward_to_children(&self, ctx: &mut Ctx<'_>) {
        if self.header.shape != CommsShape::Tree {
            return;
        }
        let n = ctx.num_nodes();
        let me = ctx.node();
        for child in earth_machine::topology::broadcast_children(NodeId(0), me, n) {
            let mut args = ArgsWriter::new();
            write_header(&mut args, &self.header);
            args.u32(self.me.0);
            args.raw(&self.payload);
            ctx.invoke(child, self.me, args.finish());
        }
    }
}

impl ThreadedFn for PhaseWork {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        // Forward down the tree before computing, so the broadcast
        // pipeline overlaps with local work.
        self.forward_to_children(ctx);
        let (hidden_range, output_range) = {
            let st: &NeuralState = ctx.user();
            (st.hidden_range, st.output_range)
        };
        match self.header.phase {
            1 => {
                // Hidden slice on the broadcast input.
                let input = bytes_to_f32s(&self.payload);
                let (slice, fanin) = {
                    let st = ctx.user_mut::<NeuralState>();
                    st.last_input = input.clone();
                    (
                        st.net
                            .hidden
                            .forward_slice(hidden_range.lo, hidden_range.hi, &input),
                        st.net.hidden.fanin,
                    )
                };
                ctx.compute(forward_slice_cost(hidden_range.len(), fanin));
                let dst = self.header.reply_addr.plus(4 * hidden_range.lo as u32);
                ctx.data_sync(&f32s_to_bytes(&slice), dst, Some(self.header.reply_slot));
            }
            2 | 3 => {
                // Phase 2: output slice forward; phase 3 adds the
                // backward math (deltas, updates, partial hidden error).
                let backward = self.header.phase == 3;
                let nhidden = {
                    let st: &NeuralState = ctx.user();
                    st.net.output.fanin
                };
                let payload = bytes_to_f32s(&self.payload);
                let (hidden, target) = if backward {
                    let (h, t) = payload.split_at(nhidden);
                    (h.to_vec(), t.to_vec())
                } else {
                    (payload, Vec::new())
                };
                let (slice, fanin) = {
                    let st = ctx.user_mut::<NeuralState>();
                    st.last_hidden = hidden.clone();
                    let s = st
                        .net
                        .output
                        .forward_slice(output_range.lo, output_range.hi, &hidden);
                    (s, st.net.output.fanin)
                };
                ctx.compute(forward_slice_cost(output_range.len(), fanin));
                let dst = self.header.reply_addr.plus(4 * output_range.lo as u32);
                ctx.data_sync(&f32s_to_bytes(&slice), dst, Some(self.header.reply_slot));
                if backward {
                    let partial = {
                        let st = ctx.user_mut::<NeuralState>();
                        let delta: Vec<f32> = slice
                            .iter()
                            .enumerate()
                            .map(|(k, &a)| (a - target[output_range.lo + k]) * sigmoid_prime(a))
                            .collect();
                        let partial = st.net.output.backward_partials(
                            output_range.lo,
                            output_range.hi,
                            &delta,
                        );
                        let h = st.last_hidden.clone();
                        st.net.output.update_slice(
                            output_range.lo,
                            output_range.hi,
                            &delta,
                            &h,
                            LEARNING_RATE,
                        );
                        partial
                    };
                    ctx.compute(backward_slice_cost(output_range.len(), fanin));
                    // Each node owns one region of the partial buffer.
                    let region = self
                        .header
                        .partial_base
                        .plus(4 * nhidden as u32 * ctx.node().0 as u32);
                    ctx.data_sync(
                        &f32s_to_bytes(&partial),
                        region,
                        Some(self.header.reply_slot),
                    );
                }
            }
            4 => {
                // Hidden-layer backward: receive summed hidden error,
                // compute deltas, update weights.
                let err = bytes_to_f32s(&self.payload);
                let fanin = {
                    let st = ctx.user_mut::<NeuralState>();
                    let delta: Vec<f32> = (hidden_range.lo..hidden_range.hi)
                        .map(|j| err[j] * sigmoid_prime(st.last_hidden[j]))
                        .collect();
                    let input = st.last_input.clone();
                    st.net.hidden.update_slice(
                        hidden_range.lo,
                        hidden_range.hi,
                        &delta,
                        &input,
                        LEARNING_RATE,
                    );
                    st.net.hidden.fanin
                };
                ctx.compute(backward_slice_cost(hidden_range.len(), fanin));
                ctx.sync(self.header.reply_slot);
            }
            other => unreachable!("no phase {other}"),
        }
        ctx.end();
    }
}

fn phase_ctor(args: &mut ArgsReader<'_>) -> Box<dyn ThreadedFn> {
    let header = read_header(args);
    let me = FuncId(args.u32());
    let n = args.remaining();
    let mut buf = vec![0u8; n];
    for b in buf.iter_mut() {
        *b = args.u8();
    }
    Box::new(PhaseWork {
        header,
        payload: buf.into_boxed_slice(),
        me,
    })
}

/// The driving frame on node 0.
struct Central {
    phase_fn: FuncId,
    mode: PassMode,
    shape: CommsShape,
    samples: Vec<(Vec<f32>, Vec<f32>)>,
    sample: usize,
    n_hidden: usize,
    n_out: usize,
    hidden_buf: GlobalAddr,
    out_buf: GlobalAddr,
    partial_buf: GlobalAddr,
}

const SLOT_HIDDEN: SlotId = SlotId(0);
const SLOT_OUTPUT: SlotId = SlotId(1);
const SLOT_BACK: SlotId = SlotId(2);
const T_HIDDEN_DONE: ThreadId = ThreadId(1);
const T_OUTPUT_DONE: ThreadId = ThreadId(2);
const T_BACK_DONE: ThreadId = ThreadId(3);

impl Central {
    fn broadcast(&self, ctx: &mut Ctx<'_>, header: PhaseHeader, payload_bytes: &[u8]) {
        let n = ctx.num_nodes();
        let targets: Vec<NodeId> = match self.shape {
            CommsShape::Sequential => (1..n).map(NodeId).collect(),
            CommsShape::Tree => {
                earth_machine::topology::broadcast_children(NodeId(0), NodeId(0), n)
            }
        };
        for node in targets {
            let mut args = ArgsWriter::new();
            write_header(&mut args, &header);
            args.u32(self.phase_fn.0);
            args.raw(payload_bytes);
            ctx.invoke(node, self.phase_fn, args.finish());
        }
    }

    fn finish_sample(&mut self, ctx: &mut Ctx<'_>) {
        self.sample += 1;
        if self.sample < self.samples.len() {
            ctx.spawn(ThreadId(0));
        } else {
            ctx.mark("neural-done");
            ctx.end();
        }
    }
}

impl ThreadedFn for Central {
    fn run(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId) {
        let p = ctx.num_nodes() as usize;
        let remote = (p - 1) as i32;
        match tid {
            // Start one sample: broadcast input, compute own hidden slice.
            ThreadId(0) => {
                let (input, _) = self.samples[self.sample].clone();
                if remote > 0 {
                    ctx.init_sync(SLOT_HIDDEN, remote, remote, T_HIDDEN_DONE);
                    let header = PhaseHeader {
                        phase: 1,
                        shape: self.shape,
                        reply_addr: self.hidden_buf,
                        reply_slot: ctx.slot_ref(SLOT_HIDDEN),
                        partial_base: self.partial_buf,
                    };
                    self.broadcast(ctx, header, &f32s_to_bytes(&input));
                }
                let (slice, range, fanin) = {
                    let st = ctx.user_mut::<NeuralState>();
                    st.last_input = input.clone();
                    let r = st.hidden_range;
                    (
                        st.net.hidden.forward_slice(r.lo, r.hi, &input),
                        r,
                        st.net.hidden.fanin,
                    )
                };
                ctx.compute(forward_slice_cost(range.len(), fanin));
                ctx.write_local(
                    self.hidden_buf.offset + 4 * range.lo as u32,
                    &f32s_to_bytes(&slice),
                );
                if remote == 0 {
                    ctx.spawn(T_HIDDEN_DONE);
                }
            }
            // Hidden layer complete: broadcast it (with target for
            // backprop), compute own output slice (and backward math).
            T_HIDDEN_DONE => {
                let backward = self.mode == PassMode::ForwardBackward;
                let hidden = bytes_to_f32s(
                    &ctx.read_local(self.hidden_buf.offset, 4 * self.n_hidden as u32),
                );
                let target = self.samples[self.sample].1.clone();
                if remote > 0 {
                    let signals = if backward { 2 * remote } else { remote };
                    ctx.init_sync(SLOT_OUTPUT, signals, signals, T_OUTPUT_DONE);
                    let mut payload = hidden.clone();
                    let phase = if backward {
                        payload.extend_from_slice(&target);
                        3
                    } else {
                        2
                    };
                    let header = PhaseHeader {
                        phase,
                        shape: self.shape,
                        reply_addr: self.out_buf,
                        reply_slot: ctx.slot_ref(SLOT_OUTPUT),
                        partial_base: self.partial_buf,
                    };
                    self.broadcast(ctx, header, &f32s_to_bytes(&payload));
                }
                let (slice, range, fanin) = {
                    let st = ctx.user_mut::<NeuralState>();
                    st.last_hidden = hidden.clone();
                    let r = st.output_range;
                    (
                        st.net.output.forward_slice(r.lo, r.hi, &hidden),
                        r,
                        st.net.output.fanin,
                    )
                };
                ctx.compute(forward_slice_cost(range.len(), fanin));
                ctx.write_local(
                    self.out_buf.offset + 4 * range.lo as u32,
                    &f32s_to_bytes(&slice),
                );
                if backward {
                    let partial = {
                        let st = ctx.user_mut::<NeuralState>();
                        let r = st.output_range;
                        let delta: Vec<f32> = slice
                            .iter()
                            .enumerate()
                            .map(|(k, &a)| (a - target[r.lo + k]) * sigmoid_prime(a))
                            .collect();
                        let partial = st.net.output.backward_partials(r.lo, r.hi, &delta);
                        let h = st.last_hidden.clone();
                        st.net
                            .output
                            .update_slice(r.lo, r.hi, &delta, &h, LEARNING_RATE);
                        partial
                    };
                    ctx.compute(backward_slice_cost(range.len(), fanin));
                    ctx.write_local(self.partial_buf.offset, &f32s_to_bytes(&partial));
                }
                if remote == 0 {
                    ctx.spawn(T_OUTPUT_DONE);
                }
            }
            // Output complete: error calc; for backprop, reduce partials
            // and broadcast the hidden error.
            T_OUTPUT_DONE => {
                let output =
                    bytes_to_f32s(&ctx.read_local(self.out_buf.offset, 4 * self.n_out as u32));
                ctx.compute(error_calc_cost(self.n_out));
                ctx.user_mut::<NeuralState>().outputs_log.push(output);
                if self.mode == PassMode::Forward {
                    self.finish_sample(ctx);
                    return;
                }
                // Sum the partial hidden-error vectors (own + remote).
                let mut err = vec![0.0f32; self.n_hidden];
                for node in 0..p {
                    let region = bytes_to_f32s(&ctx.read_local(
                        self.partial_buf.offset + 4 * self.n_hidden as u32 * node as u32,
                        4 * self.n_hidden as u32,
                    ));
                    for (e, r) in err.iter_mut().zip(&region) {
                        *e += r;
                    }
                }
                ctx.compute(VirtualDuration::from_ns(50 * (p * self.n_hidden) as u64));
                if remote > 0 {
                    ctx.init_sync(SLOT_BACK, remote, remote, T_BACK_DONE);
                    let header = PhaseHeader {
                        phase: 4,
                        shape: self.shape,
                        reply_addr: self.out_buf,
                        reply_slot: ctx.slot_ref(SLOT_BACK),
                        partial_base: self.partial_buf,
                    };
                    self.broadcast(ctx, header, &f32s_to_bytes(&err));
                }
                // Own hidden slice backward.
                let fanin = {
                    let st = ctx.user_mut::<NeuralState>();
                    let r = st.hidden_range;
                    let delta: Vec<f32> = (r.lo..r.hi)
                        .map(|j| err[j] * sigmoid_prime(st.last_hidden[j]))
                        .collect();
                    let input = st.last_input.clone();
                    st.net
                        .hidden
                        .update_slice(r.lo, r.hi, &delta, &input, LEARNING_RATE);
                    st.net.hidden.fanin
                };
                let own_hidden = ctx.user::<NeuralState>().hidden_range.len();
                ctx.compute(backward_slice_cost(own_hidden, fanin));
                if remote == 0 {
                    ctx.spawn(T_BACK_DONE);
                }
            }
            T_BACK_DONE => {
                self.finish_sample(ctx);
            }
            other => unreachable!("central has no thread {other:?}"),
        }
    }
}

/// Result of a parallel neural-network run.
pub struct NeuralRun {
    /// Per-sample full output vectors (as observed at the central node).
    pub outputs: Vec<Vec<f32>>,
    /// Mean virtual time per sample.
    pub per_sample: VirtualDuration,
    /// Total elapsed virtual time.
    pub elapsed: VirtualDuration,
    /// Raw runtime report.
    pub report: earth_rt::RunReport,
    /// earth-profile data (`Some` exactly when [`RunOpts::profile`] was set).
    pub profile: Option<earth_rt::RunProfile>,
}

/// Run `samples` training samples of a square `units`-wide network on a
/// fault-free `nodes`-node MANNA (the paper's configuration).
pub fn run_neural(
    units: usize,
    nodes: u16,
    samples: usize,
    seed: u64,
    mode: PassMode,
    shape: CommsShape,
) -> NeuralRun {
    let opts = RunOpts::manna(nodes, seed);
    run_neural_on(units, units, units, samples, mode, shape, opts)
}

/// Like [`run_neural`] with earth-profile collection on. Kept for the
/// benchmark harness; new callers use [`run_neural_on`].
pub fn run_neural_profiled(
    units: usize,
    nodes: u16,
    samples: usize,
    seed: u64,
    mode: PassMode,
    shape: CommsShape,
) -> NeuralRun {
    let opts = RunOpts::manna(nodes, seed).profiled();
    run_neural_on(units, units, units, samples, mode, shape, opts)
}

/// Run `samples` training samples of a network with per-layer widths (the
/// paper's §3.3 closing remark: "the number of units may differ per
/// layer") as `opts` describes. Under a fault plan the reliability layer
/// makes the collect/distribute traffic exactly-once, and the
/// checkpoint/recovery plane replays work lost to a crash, so the trained
/// weights and outputs are bit-identical to the fault-free run's — only
/// virtual time degrades.
pub fn run_neural_on(
    n_in: usize,
    n_hidden: usize,
    n_out: usize,
    samples: usize,
    mode: PassMode,
    shape: CommsShape,
    opts: RunOpts,
) -> NeuralRun {
    assert!(samples >= 1);
    let (nodes, seed, profile) = (opts.cfg.nodes, opts.seed, opts.profile);
    let mut rt = opts.runtime();
    let hidden_ranges = partition(n_hidden, nodes as usize);
    let out_ranges = partition(n_out, nodes as usize);
    let net = Mlp::new(n_in, n_hidden, n_out, seed ^ 0xD1);
    for node in 0..nodes {
        rt.set_state(
            NodeId(node),
            NeuralState {
                net: net.clone(),
                hidden_range: hidden_ranges[node as usize],
                output_range: out_ranges[node as usize],
                last_input: Vec::new(),
                last_hidden: Vec::new(),
                outputs_log: Vec::new(),
            },
        );
    }
    // Buffers on the central node.
    let hidden_buf = rt.alloc_on(NodeId(0), 4 * n_hidden as u32);
    let out_buf = rt.alloc_on(NodeId(0), 4 * n_out as u32);
    let partial_buf = rt.alloc_on(NodeId(0), 4 * n_hidden as u32 * nodes as u32);

    // Seeded sample stream.
    let mut rng = Rng::new(seed ^ 0x5A);
    let sample_set: Vec<(Vec<f32>, Vec<f32>)> = (0..samples)
        .map(|_| {
            let x = (0..n_in)
                .map(|_| rng.gen_f64_range(-1.0, 1.0) as f32)
                .collect();
            let t = (0..n_out)
                .map(|_| rng.gen_f64_range(0.1, 0.9) as f32)
                .collect();
            (x, t)
        })
        .collect();

    let phase_fn = rt.register("nn-phase", phase_ctor);
    let central_samples = sample_set;
    let central_fn = rt.register("nn-central", move |_| {
        Box::new(Central {
            phase_fn,
            mode,
            shape,
            samples: central_samples.clone(),
            sample: 0,
            n_hidden,
            n_out,
            hidden_buf,
            out_buf,
            partial_buf,
        })
    });
    rt.inject_invoke(NodeId(0), central_fn, ArgsWriter::new().finish());
    let report = rt.run();
    assert!(report.is_clean(), "neural run left debris: {report}");
    let done = report.mark("neural-done").expect("run incomplete");
    let elapsed = done.since(VirtualTime::ZERO);
    let outputs = std::mem::take(&mut rt.state_mut::<NeuralState>(NodeId(0)).outputs_log);
    let profile = profile.then(|| rt.take_profile());
    NeuralRun {
        outputs,
        per_sample: elapsed / samples as u64,
        elapsed,
        report,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_sequential_bit_for_bit() {
        let units = 24;
        let run = run_neural(units, 5, 3, 11, PassMode::Forward, CommsShape::Tree);
        // Recreate the reference: same net seed, same sample stream.
        let net = Mlp::square(units, 11 ^ 0xD1);
        let mut rng = Rng::new(11 ^ 0x5A);
        for sample_out in &run.outputs {
            let x: Vec<f32> = (0..units)
                .map(|_| rng.gen_f64_range(-1.0, 1.0) as f32)
                .collect();
            let _t: Vec<f32> = (0..units)
                .map(|_| rng.gen_f64_range(0.1, 0.9) as f32)
                .collect();
            let want = net.forward(&x);
            assert_eq!(sample_out, &want.output, "unit slicing must be exact");
        }
    }

    #[test]
    fn backward_tracks_sequential_training() {
        let units = 16;
        let samples = 4;
        let run = run_neural(
            units,
            4,
            samples,
            7,
            PassMode::ForwardBackward,
            CommsShape::Tree,
        );
        // Sequential reference with identical sample stream.
        let mut net = Mlp::square(units, 7 ^ 0xD1);
        let mut rng = Rng::new(7 ^ 0x5A);
        for sample_out in &run.outputs {
            let x: Vec<f32> = (0..units)
                .map(|_| rng.gen_f64_range(-1.0, 1.0) as f32)
                .collect();
            let t: Vec<f32> = (0..units)
                .map(|_| rng.gen_f64_range(0.1, 0.9) as f32)
                .collect();
            let acts = net.forward(&x);
            for (a, b) in sample_out.iter().zip(&acts.output) {
                assert!(
                    (a - b).abs() < 1e-4,
                    "parallel {a} vs sequential {b} (f32 reduction order)"
                );
            }
            net.train_sample(&x, &t, LEARNING_RATE);
        }
    }

    #[test]
    fn single_node_runs() {
        let run = run_neural(8, 1, 2, 3, PassMode::ForwardBackward, CommsShape::Tree);
        assert_eq!(run.outputs.len(), 2);
        assert_eq!(run.report.net_messages, 0);
    }

    #[test]
    fn tree_beats_sequential_comms_at_scale() {
        let units = 80;
        let seq = run_neural(units, 16, 3, 5, PassMode::Forward, CommsShape::Sequential);
        let tree = run_neural(units, 16, 3, 5, PassMode::Forward, CommsShape::Tree);
        assert!(
            tree.per_sample < seq.per_sample,
            "tree {} vs sequential {}",
            tree.per_sample,
            seq.per_sample
        );
    }

    #[test]
    fn parallel_is_faster_than_one_node() {
        let units = 80;
        let one = run_neural(units, 1, 2, 9, PassMode::Forward, CommsShape::Tree);
        let sixteen = run_neural(units, 16, 2, 9, PassMode::Forward, CommsShape::Tree);
        let speedup = one.per_sample.as_us_f64() / sixteen.per_sample.as_us_f64();
        assert!(speedup > 4.0, "speedup {speedup}");
    }
}

#[cfg(test)]
mod shaped_tests {
    use super::*;

    #[test]
    fn rectangular_forward_is_bit_exact() {
        // 12 inputs, 20 hidden, 6 outputs over 5 nodes.
        let (n_in, n_hidden, n_out) = (12, 20, 6);
        let run = run_neural_on(
            n_in,
            n_hidden,
            n_out,
            2,
            PassMode::Forward,
            CommsShape::Tree,
            RunOpts::manna(5, 13),
        );
        let net = Mlp::new(n_in, n_hidden, n_out, 13 ^ 0xD1);
        let mut rng = Rng::new(13 ^ 0x5A);
        for out in &run.outputs {
            let x: Vec<f32> = (0..n_in)
                .map(|_| rng.gen_f64_range(-1.0, 1.0) as f32)
                .collect();
            let _t: Vec<f32> = (0..n_out)
                .map(|_| rng.gen_f64_range(0.1, 0.9) as f32)
                .collect();
            assert_eq!(out, &net.forward(&x).output);
            assert_eq!(out.len(), n_out);
        }
    }

    #[test]
    fn rectangular_backward_tracks_sequential() {
        let (n_in, n_hidden, n_out) = (8, 14, 5);
        let run = run_neural_on(
            n_in,
            n_hidden,
            n_out,
            3,
            PassMode::ForwardBackward,
            CommsShape::Sequential,
            RunOpts::manna(4, 21),
        );
        let mut net = Mlp::new(n_in, n_hidden, n_out, 21 ^ 0xD1);
        let mut rng = Rng::new(21 ^ 0x5A);
        for out in &run.outputs {
            let x: Vec<f32> = (0..n_in)
                .map(|_| rng.gen_f64_range(-1.0, 1.0) as f32)
                .collect();
            let t: Vec<f32> = (0..n_out)
                .map(|_| rng.gen_f64_range(0.1, 0.9) as f32)
                .collect();
            let acts = net.forward(&x);
            for (a, b) in out.iter().zip(&acts.output) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
            net.train_sample(&x, &t, LEARNING_RATE);
        }
    }
}
