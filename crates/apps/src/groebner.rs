//! The Gröbner Basis application (§3.2) on EARTH.
//!
//! Structure, following Figure 3 of the paper:
//!
//! * **Distributed pairs queues** — every worker node keeps its own
//!   priority queue of critical pairs ("ordered by priority of
//!   goodness"); priorities are only maintained locally. Idle workers
//!   obtain pairs through a receiver-initiated ring protocol.
//! * **Replicated solution set** — the basis is read-cached on every
//!   node; maintenance (id assignment, the lock) is centralized on node
//!   0. New polynomials are broadcast to all nodes as compact vectors.
//! * **The lock** — a worker whose reduction survives must acquire the
//!   central lock, *re-check reducibility* against any polynomials that
//!   arrived in the meantime, and only then insert. While the lock
//!   request is in flight the worker keeps reducing further pairs — the
//!   algorithmic-level latency hiding the paper highlights.
//! * **Termination detection** — the last node is reserved for it ("one
//!   node is reserved for detecting termination"): workers report
//!   created/consumed pair counters on every park/unpark; when all are
//!   parked with balanced counters the detector runs two confirmation
//!   probe rounds (counters make in-flight work visible: any pair or
//!   pending insert is created-but-not-consumed) and then broadcasts
//!   stop.
//!
//! The computation is the real GF(32003) arithmetic of `earth-algebra`;
//! the resulting basis is verified to be a Gröbner basis whose reduced
//! form equals the sequential one.

use earth_algebra::buchberger::{pair_key, select_new_pairs, SelectionStrategy};
use earth_algebra::cost::{insert_cost, work_cost};
use earth_algebra::monomial::Monomial;
use earth_algebra::poly::{Poly, Ring};
use earth_algebra::spoly::{normal_form, s_polynomial, Work};
use earth_algebra::wire;
use earth_machine::{MachineConfig, NodeId};
use earth_rt::{ArgsWriter, Ctx, FuncId, RunOpts, SlotId, SlotRef, ThreadId, ThreadedFn};
use earth_sim::{MinEntry, Rng, VirtualDuration, VirtualTime};
use std::collections::{BinaryHeap, VecDeque};

// ---------------------------------------------------------------------------
// Local pair queue

/// A worker's local critical pair: strategy key, tiebreak sequence, and
/// the `(i, j)` basis indices as the carried item. `MinEntry` inverts the
/// ordering so `BinaryHeap` pops the *smallest* key first.
type LocalPair = MinEntry<(u64, u64), (u32, u32)>;

// ---------------------------------------------------------------------------
// Node state

struct ManagerState {
    lock_held_by: Option<u16>,
    lock_queue: VecDeque<u16>,
    basis_count: u32,
}

struct GrobNode {
    ring: Ring,
    strategy: SelectionStrategy,
    /// Read cache of the solution set, indexed by global polynomial id.
    cache: Vec<Option<Poly>>,
    leads: Vec<Option<Monomial>>,
    sugars: Vec<Option<u64>>,
    /// Number of leading cache entries present (ids 0..contiguous).
    contiguous: u32,
    queue: BinaryHeap<LocalPair>,
    /// Pairs referencing ids not yet cached.
    deferred: Vec<(u32, u32)>,
    pending_inserts: VecDeque<Poly>,
    lock_requested: bool,
    lock_granted: Option<u32>,
    awaiting_own_insert: bool,
    created: u64,
    consumed: u64,
    parked: bool,
    worker_slot: Option<SlotRef>,
    stop: bool,
    starving: VecDeque<u16>,
    requested_work: bool,
    pair_seq: u64,
    /// Work accounting for reporting.
    reductions: u64,
    /// Manager role (node 0 only).
    mgr: Option<ManagerState>,
    /// Detector role (last node only): per-worker (parked, created,
    /// consumed), probe state.
    det: Option<DetectorState>,
    /// Function ids of the protocol handlers (filled at setup).
    fns: ProtoFns,
    workers: u16,
    detector: Option<NodeId>,
    /// Central solution-set status word (on node 0), polled before every
    /// reduction ("obtaining status information about the solution set").
    status_addr: earth_rt::GlobalAddr,
    /// Scratch for the split-phase status load.
    status_scratch: u32,
    /// The pair whose reduction awaits the status reply.
    current_pair: Option<LocalPair>,
}

struct DetectorState {
    parked: Vec<bool>,
    created: Vec<u64>,
    consumed: Vec<u64>,
    round: u32,
    acks: usize,
    round_ok: bool,
    lock_free: bool,
    last_vector: Option<(Vec<u64>, Vec<u64>)>,
    confirmations: u32,
    done: bool,
}

#[derive(Clone, Copy, Default)]
struct ProtoFns {
    add_poly: u32,
    lock_grant: u32,
    pair_request: u32,
    pair_grant: u32,
    probe: u32,
    probe_ack: u32,
    stop: u32,
    status: u32,
    lock_req: u32,
    unlock: u32,
    add_poly_req: u32,
}

impl GrobNode {
    fn cache_insert(&mut self, id: u32, poly: Poly) {
        let idx = id as usize;
        if self.cache.len() <= idx {
            self.cache.resize_with(idx + 1, || None);
            self.leads.resize_with(idx + 1, || None);
            self.sugars.resize_with(idx + 1, || None);
        }
        self.leads[idx] = Some(poly.lead().m);
        self.sugars[idx] = Some(poly.degree() as u64);
        self.cache[idx] = Some(poly);
        while (self.contiguous as usize) < self.cache.len()
            && self.cache[self.contiguous as usize].is_some()
        {
            self.contiguous += 1;
        }
    }

    /// Queue a pair, deferring it if either poly is not yet cached.
    fn push_pair(&mut self, i: u32, j: u32) {
        let (Some(li), Some(lj)) = (
            self.leads.get(i as usize).cloned().flatten(),
            self.leads.get(j as usize).cloned().flatten(),
        ) else {
            self.deferred.push((i, j));
            return;
        };
        let lcm = li.lcm(&lj);
        let sugar = self.sugars[i as usize]
            .unwrap()
            .max(self.sugars[j as usize].unwrap())
            .max(lcm.degree() as u64);
        self.pair_seq += 1;
        let key = pair_key(self.strategy, &lcm, sugar, self.pair_seq);
        self.queue.push(LocalPair::new(key, self.pair_seq, (i, j)));
    }

    /// Re-examine deferred pairs after a cache update.
    fn retry_deferred(&mut self) {
        let pending = std::mem::take(&mut self.deferred);
        for (i, j) in pending {
            self.push_pair(i, j);
        }
    }

    /// The contiguous known prefix of the basis, for reductions,
    /// borrowed from the cache.
    fn known_basis(&self) -> Vec<&Poly> {
        known_prefix(&self.cache, self.contiguous)
    }
}

/// The first `contiguous` cached polynomials, which are all present.
/// A free function so callers holding `&mut GrobNode` can borrow the
/// cache alone while they update other fields.
fn known_prefix(cache: &[Option<Poly>], contiguous: u32) -> Vec<&Poly> {
    cache[..contiguous as usize]
        .iter()
        .map(|p| p.as_ref().expect("contiguous prefix"))
        .collect()
}

/// Wake the worker frame on this node if it is parked.
fn wake_worker(ctx: &mut Ctx<'_>) {
    let slot = {
        let st = ctx.user_mut::<GrobNode>();
        if st.parked {
            st.parked = false;
            st.worker_slot
        } else {
            None
        }
    };
    if let Some(slot) = slot {
        ctx.sync(slot);
    }
}

/// Send a status update to the detector (no-op without one).
fn send_status(ctx: &mut Ctx<'_>, fns: ProtoFns) {
    let st: &GrobNode = ctx.user();
    let Some(det) = st.detector else { return };
    let mut a = ArgsWriter::new();
    a.u16(ctx.node().0)
        .u8(st.parked as u8)
        .u64(st.created)
        .u64(st.consumed);
    ctx.invoke(det, FuncId(fns.status), a.finish());
}

// ---------------------------------------------------------------------------
// The worker frame

const SLOT_WAKE: SlotId = SlotId(0);
const SLOT_STATUS: SlotId = SlotId(1);
const T_LOOP: ThreadId = ThreadId(1);
const T_REDUCE: ThreadId = ThreadId(2);

struct Worker;

impl ThreadedFn for Worker {
    fn run(&mut self, ctx: &mut Ctx<'_>, tid: ThreadId) {
        match tid {
            ThreadId(0) => {
                let slot = ctx.slot_ref(SLOT_WAKE);
                {
                    let st = ctx.user_mut::<GrobNode>();
                    st.worker_slot = Some(slot);
                    st.status_scratch = 0;
                }
                let scratch = ctx.alloc(8).offset;
                ctx.user_mut::<GrobNode>().status_scratch = scratch;
                ctx.spawn(T_LOOP);
            }
            T_LOOP => self.step(ctx),
            T_REDUCE => {
                // Status word arrived; run the reduction we held back.
                let fns = ctx.user::<GrobNode>().fns;
                let pair = ctx
                    .user_mut::<GrobNode>()
                    .current_pair
                    .take()
                    .expect("pair awaiting status");
                self.process_pair(ctx, fns, pair);
                ctx.spawn(T_LOOP);
            }
            other => unreachable!("worker has no thread {other:?}"),
        }
    }
}

impl Worker {
    fn step(&mut self, ctx: &mut Ctx<'_>) {
        let fns = ctx.user::<GrobNode>().fns;
        if ctx.user::<GrobNode>().stop {
            ctx.end();
            return;
        }

        // 1. Complete a pending insert if the lock is ours and the cache
        //    has caught up with the basis count we were granted against.
        let insert_ready = {
            let st: &GrobNode = ctx.user();
            matches!(st.lock_granted, Some(nb) if st.contiguous >= nb)
        };
        if insert_ready {
            self.complete_insert(ctx, fns);
            ctx.spawn(T_LOOP);
            return;
        }

        // 2. Reduce the best local pair — unless too many speculative
        //    results already await insertion (deep speculation against a
        //    stale basis mostly produces work that collapses later).
        // Speculation throttle: with more than this many unresolved
        // speculative results, stop starting new reductions (deep
        // speculation against a stale basis mostly produces work that
        // collapses later). Empirically 1 maximizes speedup on the
        // Table 2 inputs; override with GB_THROTTLE for ablations.
        let throttle_limit: usize = std::env::var("GB_THROTTLE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        let throttle = ctx.user::<GrobNode>().pending_inserts.len() >= throttle_limit;
        let pair = if throttle {
            None
        } else {
            ctx.user_mut::<GrobNode>().queue.pop()
        };
        if let Some(pair) = pair {
            // Split-phase load of the central solution-set status word;
            // the reduction runs when it arrives (the per-step
            // "individual synchronizing data load" of the paper).
            let (addr, scratch) = {
                let st = ctx.user_mut::<GrobNode>();
                st.current_pair = Some(pair);
                (st.status_addr, st.status_scratch)
            };
            ctx.init_sync(SLOT_STATUS, 1, 0, T_REDUCE);
            ctx.get_sync(addr, scratch, 4, SLOT_STATUS);
            return;
        }

        // 3. Nothing local: ask the ring for work, then park.
        let (should_request, next) = {
            let st: &GrobNode = ctx.user();
            let me = ctx.node().0;
            let should = !throttle
                && !st.requested_work
                && st.workers > 1
                && !st.stop
                && st.queue.is_empty();
            (should, NodeId((me + 1) % st.workers))
        };
        if should_request {
            ctx.user_mut::<GrobNode>().requested_work = true;
            let mut a = ArgsWriter::new();
            a.u16(ctx.node().0).u16(0);
            ctx.invoke(next, FuncId(fns.pair_request), a.finish());
        }
        // Park (single-worker runs self-terminate instead).
        let self_done = {
            let st: &GrobNode = ctx.user();
            st.detector.is_none()
                && st.pending_inserts.is_empty()
                && !st.lock_requested
                && st.created == st.consumed
        };
        if self_done {
            ctx.mark("groebner-done");
            ctx.end();
            return;
        }
        ctx.init_sync(SLOT_WAKE, 1, 0, T_LOOP);
        ctx.user_mut::<GrobNode>().parked = true;
        send_status(ctx, fns);
    }

    /// S-polynomial + normal form for one pair.
    fn process_pair(&mut self, ctx: &mut Ctx<'_>, fns: ProtoFns, pair: LocalPair) {
        let (nf, w) = {
            let st: &GrobNode = ctx.user();
            let basis = st.known_basis();
            let (pi, pj) = pair.item;
            let f = st.cache[pi as usize].as_ref().expect("cached");
            let g = st.cache[pj as usize].as_ref().expect("cached");
            let mut w = Work::default();
            let s = s_polynomial(&st.ring, f, g, &mut w);
            let nf = normal_form(&st.ring, &s, &basis, &mut w);
            (nf, w)
        };
        ctx.compute(work_cost(&w));
        let st = ctx.user_mut::<GrobNode>();
        st.reductions += 1;
        if nf.is_zero() {
            st.consumed += 1;
        } else {
            st.pending_inserts.push_back(nf.monic());
            if !st.lock_requested {
                st.lock_requested = true;
                let mut a = ArgsWriter::new();
                a.u16(ctx.node().0);
                ctx.invoke(NodeId(0), FuncId(fns.lock_req), a.finish());
            }
        }
    }

    /// We hold the lock and our cache is complete. The paper's early-
    /// release optimization: under the lock we only *check* whether the
    /// candidate's leading term became reducible by concurrently added
    /// polynomials (a handful of monomial divisions); if it did, we give
    /// the lock back immediately and redo the full reduction without it.
    fn complete_insert(&mut self, ctx: &mut Ctx<'_>, fns: ProtoFns) {
        enum Action {
            Insert(Poly),
            RereduceOutsideLock(Poly),
            NothingLeft,
        }
        let action = {
            let st = ctx.user_mut::<GrobNode>();
            let _nbasis = st.lock_granted.take().expect("lock granted");
            match st.pending_inserts.pop_front() {
                None => Action::NothingLeft,
                Some(poly) => {
                    let basis = st.known_basis();
                    let mut w = Work::default();
                    if earth_algebra::spoly::head_reducible(&poly, &basis, &mut w) {
                        Action::RereduceOutsideLock(poly)
                    } else {
                        Action::Insert(poly)
                    }
                }
            }
        };
        // The head check is a few monomial divisions.
        ctx.compute(VirtualDuration::from_us(20));
        match action {
            Action::NothingLeft => {
                // Every speculative result collapsed while we waited.
                let st = ctx.user_mut::<GrobNode>();
                st.lock_requested = false;
                let mut a = ArgsWriter::new();
                a.u16(ctx.node().0);
                ctx.invoke(NodeId(0), FuncId(fns.unlock), a.finish());
            }
            Action::Insert(poly) => {
                // Ship it to the manager for id assignment + broadcast;
                // the manager releases the lock. Our own AddPoly receipt
                // finishes the bookkeeping.
                let st = ctx.user_mut::<GrobNode>();
                st.lock_requested = false;
                st.awaiting_own_insert = true;
                let bytes = wire::to_bytes(&poly.monic(), st.ring.nvars);
                let mut a = ArgsWriter::new();
                a.u16(ctx.node().0).bytes(&bytes);
                ctx.invoke(NodeId(0), FuncId(fns.add_poly_req), a.finish());
            }
            Action::RereduceOutsideLock(poly) => {
                // Release the lock first, then reduce at leisure.
                {
                    let mut a = ArgsWriter::new();
                    a.u16(ctx.node().0);
                    ctx.invoke(NodeId(0), FuncId(fns.unlock), a.finish());
                }
                let (nf, w) = {
                    let st: &GrobNode = ctx.user();
                    let basis = st.known_basis();
                    let mut w = Work::default();
                    let nf = normal_form(&st.ring, &poly, &basis, &mut w);
                    (nf, w)
                };
                ctx.compute(work_cost(&w));
                let st = ctx.user_mut::<GrobNode>();
                if nf.is_zero() {
                    // Someone else's insert made ours redundant.
                    st.consumed += 1;
                    st.lock_requested = !st.pending_inserts.is_empty();
                } else {
                    st.pending_inserts.push_front(nf.monic());
                    st.lock_requested = true;
                }
                if st.lock_requested {
                    let mut a = ArgsWriter::new();
                    a.u16(ctx.node().0);
                    ctx.invoke(NodeId(0), FuncId(fns.lock_req), a.finish());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol handler frames (transient)

/// AddPoly { id, inserter, bytes }: cache the new basis polynomial.
struct AddPoly {
    id: u32,
    inserter: u16,
    bytes: Box<[u8]>,
}

impl ThreadedFn for AddPoly {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        let fns = ctx.user::<GrobNode>().fns;
        let me = ctx.node().0;
        // Deserialization cost: proportional to the polynomial size.
        ctx.compute(VirtualDuration::from_ns(200 * self.bytes.len() as u64));
        let (grants, prune_work): (Vec<(u16, LocalPair)>, Work) = {
            let st = ctx.user_mut::<GrobNode>();
            let poly = wire::from_bytes(&st.ring, &self.bytes);
            st.cache_insert(self.id, poly);
            st.retry_deferred();
            // Opportunistically re-reduce pending inserts against the
            // newcomer, off the lock's critical path: most speculative
            // results collapse to zero here instead of cycling through
            // the lock.
            let mut prune_work = Work::default();
            let newcomer = st.cache[self.id as usize].as_ref().unwrap();
            let basis = known_prefix(&st.cache, st.contiguous);
            let mut still_pending = VecDeque::new();
            while let Some(pending) = st.pending_inserts.pop_front() {
                if earth_algebra::spoly::head_reducible(
                    &pending,
                    std::slice::from_ref(newcomer),
                    &mut prune_work,
                ) {
                    let nf = normal_form(&st.ring, &pending, &basis, &mut prune_work);
                    if nf.is_zero() {
                        st.consumed += 1;
                    } else {
                        still_pending.push_back(nf.monic());
                    }
                } else {
                    still_pending.push_back(pending);
                }
            }
            st.pending_inserts = still_pending;
            let mut grants = Vec::new();
            if self.inserter == me && st.awaiting_own_insert {
                st.awaiting_own_insert = false;
                // The pair that produced this polynomial is now consumed.
                st.consumed += 1;
                // Generate this polynomial's critical pairs (locally, with
                // the same criteria as the sequential algorithm).
                let leads: Vec<Monomial> = st.cache[..st.contiguous as usize]
                    .iter()
                    .map(|p| p.as_ref().unwrap().lead().m)
                    .collect();
                let mut skip_p = 0usize;
                let mut skip_c = 0usize;
                let selected = select_new_pairs(&leads, self.id as usize, &mut skip_p, &mut skip_c);
                // Scatter the fresh pairs over the workers (the paper's
                // pairs "are created asynchronously and in varying
                // numbers per node, and are thus subject to dynamic load
                // balancing"): starving workers first, then round-robin,
                // keeping every workers-th pair local.
                let workers = st.workers;
                let mut rr = me;
                for (i, _) in selected {
                    st.created += 1;
                    let dst = if let Some(hungry) = st.starving.pop_front() {
                        hungry
                    } else {
                        rr = (rr + 1) % workers;
                        rr
                    };
                    if dst == me {
                        st.push_pair(i as u32, self.id);
                    } else {
                        // Key and seq are irrelevant here: the grant is a
                        // plain (i, j) carrier, re-keyed by the receiver.
                        grants.push((dst, LocalPair::new((0, 0), 0, (i as u32, self.id))));
                    }
                }
                // More pending inserts? Re-request the lock.
                if !st.pending_inserts.is_empty() && !st.lock_requested {
                    st.lock_requested = true;
                    grants.push((u16::MAX, LocalPair::new((0, 0), 0, (0, 0)))); // sentinel handled below
                }
            }
            (grants, prune_work)
        };
        ctx.compute(work_cost(&prune_work));
        let mut need_lock = false;
        for (dst, pair) in grants {
            if dst == u16::MAX {
                need_lock = true;
                continue;
            }
            ctx.compute(insert_cost(0));
            let (pi, pj) = pair.item;
            let mut a = ArgsWriter::new();
            a.u32(pi).u32(pj);
            ctx.invoke(NodeId(dst), FuncId(fns.pair_grant), a.finish());
        }
        if need_lock {
            let mut a = ArgsWriter::new();
            a.u16(ctx.node().0);
            ctx.invoke(NodeId(0), FuncId(fns.lock_req), a.finish());
        }
        wake_worker(ctx);
        ctx.end();
    }
}

/// LockGrant { nbasis }: the manager granted us the lock.
struct LockGrant {
    nbasis: u32,
}

impl ThreadedFn for LockGrant {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        ctx.user_mut::<GrobNode>().lock_granted = Some(self.nbasis);
        wake_worker(ctx);
        ctx.end();
    }
}

/// PairRequest { origin, hops }: receiver-initiated ring balancing.
struct PairRequest {
    origin: u16,
    hops: u16,
}

impl ThreadedFn for PairRequest {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        let fns = ctx.user::<GrobNode>().fns;
        let action = {
            let st = ctx.user_mut::<GrobNode>();
            if st.stop {
                None
            } else if st.queue.len() >= 2 {
                Some(st.queue.pop().unwrap())
            } else {
                st.starving.push_back(self.origin);
                None
            }
        };
        match action {
            Some(pair) => {
                let (pi, pj) = pair.item;
                let mut a = ArgsWriter::new();
                a.u32(pi).u32(pj);
                ctx.invoke(NodeId(self.origin), FuncId(fns.pair_grant), a.finish());
            }
            None => {
                let st: &GrobNode = ctx.user();
                let workers = st.workers;
                if !st.stop && self.hops + 1 < workers.saturating_sub(1) {
                    let next = NodeId((ctx.node().0 + 1) % workers);
                    if next.0 != self.origin {
                        let mut a = ArgsWriter::new();
                        a.u16(self.origin).u16(self.hops + 1);
                        ctx.invoke(next, FuncId(fns.pair_request), a.finish());
                    }
                }
            }
        }
        ctx.end();
    }
}

/// PairGrant { i, j }: a pair migrated to this node.
struct PairGrant {
    i: u32,
    j: u32,
}

impl ThreadedFn for PairGrant {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        {
            let st = ctx.user_mut::<GrobNode>();
            st.requested_work = false;
            st.push_pair(self.i, self.j);
        }
        wake_worker(ctx);
        ctx.end();
    }
}

/// Stop: global termination.
struct Stop;

impl ThreadedFn for Stop {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        ctx.user_mut::<GrobNode>().stop = true;
        wake_worker(ctx);
        ctx.end();
    }
}

// ---- manager handlers (node 0) --------------------------------------------

fn grant_lock(ctx: &mut Ctx<'_>, fns: ProtoFns, to: u16) {
    let nbasis = {
        let st: &GrobNode = ctx.user();
        st.mgr.as_ref().expect("manager").basis_count
    };
    let mut a = ArgsWriter::new();
    a.u32(nbasis);
    ctx.invoke(NodeId(to), FuncId(fns.lock_grant), a.finish());
}

/// LockReq { worker }.
struct LockReq {
    worker: u16,
}

impl ThreadedFn for LockReq {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        let fns = ctx.user::<GrobNode>().fns;
        let grant = {
            let st = ctx.user_mut::<GrobNode>();
            let mgr = st.mgr.as_mut().expect("manager");
            if mgr.lock_held_by.is_none() {
                mgr.lock_held_by = Some(self.worker);
                true
            } else {
                mgr.lock_queue.push_back(self.worker);
                false
            }
        };
        if grant {
            grant_lock(ctx, fns, self.worker);
        }
        ctx.end();
    }
}

fn release_and_grant_next(ctx: &mut Ctx<'_>, fns: ProtoFns) {
    let next = {
        let st = ctx.user_mut::<GrobNode>();
        let mgr = st.mgr.as_mut().expect("manager");
        mgr.lock_held_by = None;
        let next = mgr.lock_queue.pop_front();
        if let Some(w) = next {
            mgr.lock_held_by = Some(w);
        }
        next
    };
    if let Some(w) = next {
        grant_lock(ctx, fns, w);
    }
}

/// Unlock { worker }.
struct Unlock {
    worker: u16,
}

impl ThreadedFn for Unlock {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        let fns = ctx.user::<GrobNode>().fns;
        {
            let st: &GrobNode = ctx.user();
            let mgr = st.mgr.as_ref().expect("manager");
            assert_eq!(mgr.lock_held_by, Some(self.worker), "unlock by non-holder");
        }
        release_and_grant_next(ctx, fns);
        ctx.end();
    }
}

/// AddPolyReq { worker, bytes }: assign an id, broadcast, release lock.
struct AddPolyReq {
    worker: u16,
    bytes: Box<[u8]>,
}

impl ThreadedFn for AddPolyReq {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        let fns = ctx.user::<GrobNode>().fns;
        let (id, workers) = {
            let st = ctx.user_mut::<GrobNode>();
            let mgr = st.mgr.as_mut().expect("manager");
            assert_eq!(
                mgr.lock_held_by,
                Some(self.worker),
                "insert without the lock"
            );
            let id = mgr.basis_count;
            mgr.basis_count += 1;
            (id, st.workers)
        };
        {
            let addr = ctx.user::<GrobNode>().status_addr;
            ctx.write_local(addr.offset, &(id + 1).to_le_bytes());
        }
        ctx.compute(insert_cost(0));
        // Broadcast to every worker (the paper sends broadcasts "in
        // sequence"; the polynomials themselves travel as block data).
        for w in 0..workers {
            let mut a = ArgsWriter::new();
            a.u32(id).u16(self.worker).bytes(&self.bytes);
            ctx.invoke(NodeId(w), FuncId(fns.add_poly), a.finish());
        }
        release_and_grant_next(ctx, fns);
        ctx.end();
    }
}

// ---- detector handlers (last node) -----------------------------------------

/// Status { worker, parked, created, consumed }.
struct Status {
    worker: u16,
    parked: bool,
    created: u64,
    consumed: u64,
}

impl ThreadedFn for Status {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        let fns = ctx.user::<GrobNode>().fns;
        let start_round = {
            let st = ctx.user_mut::<GrobNode>();
            let det = st.det.as_mut().expect("detector");
            if det.done {
                false
            } else {
                let w = self.worker as usize;
                det.parked[w] = self.parked;
                det.created[w] = self.created;
                det.consumed[w] = self.consumed;
                let balanced = det.created.iter().sum::<u64>() == det.consumed.iter().sum::<u64>();
                let all_parked = det.parked.iter().all(|&p| p);
                if balanced && all_parked && det.acks == 0 {
                    det.round += 1;
                    det.acks = st.workers as usize + 1; // workers + manager
                    det.round_ok = true;
                    det.lock_free = false;
                    true
                } else {
                    false
                }
            }
        };
        if start_round {
            probe_all(ctx, fns);
        }
        ctx.end();
    }
}

fn probe_all(ctx: &mut Ctx<'_>, fns: ProtoFns) {
    let (workers, round) = {
        let st: &GrobNode = ctx.user();
        (st.workers, st.det.as_ref().unwrap().round)
    };
    for w in 0..workers {
        let mut a = ArgsWriter::new();
        a.u32(round).u8(0);
        ctx.invoke(NodeId(w), FuncId(fns.probe), a.finish());
    }
    // The manager's lock state is probed too (mgr flag = 1).
    let mut a = ArgsWriter::new();
    a.u32(round).u8(1);
    ctx.invoke(NodeId(0), FuncId(fns.probe), a.finish());
}

/// Probe { round, mgr }: executed on a worker/manager node; replies with
/// its instantaneous state.
struct Probe {
    round: u32,
    mgr: bool,
}

impl ThreadedFn for Probe {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        let fns = ctx.user::<GrobNode>().fns;
        let det = ctx.user::<GrobNode>().detector.expect("detector exists");
        let mut a = ArgsWriter::new();
        let st: &GrobNode = ctx.user();
        if self.mgr {
            let mgr = st.mgr.as_ref().expect("manager");
            let free = mgr.lock_held_by.is_none() && mgr.lock_queue.is_empty();
            a.u32(self.round)
                .u8(1)
                .u16(ctx.node().0)
                .u8(free as u8)
                .u64(0)
                .u64(0);
        } else {
            let quiet = st.parked && st.pending_inserts.is_empty();
            a.u32(self.round)
                .u8(0)
                .u16(ctx.node().0)
                .u8(quiet as u8)
                .u64(st.created)
                .u64(st.consumed);
        }
        ctx.invoke(det, FuncId(fns.probe_ack), a.finish());
        ctx.end();
    }
}

/// ProbeAck: one probed node's reply.
struct ProbeAck {
    round: u32,
    mgr: bool,
    node: u16,
    quiet: bool,
    created: u64,
    consumed: u64,
}

impl ThreadedFn for ProbeAck {
    fn run(&mut self, ctx: &mut Ctx<'_>, _tid: ThreadId) {
        let fns = ctx.user::<GrobNode>().fns;
        enum Outcome {
            Nothing,
            NextRound,
            Terminate,
        }
        let outcome = {
            let st = ctx.user_mut::<GrobNode>();
            let workers = st.workers;
            let det = st.det.as_mut().expect("detector");
            if det.done || self.round != det.round || det.acks == 0 {
                Outcome::Nothing
            } else {
                det.acks -= 1;
                if self.mgr {
                    det.lock_free = self.quiet;
                    det.round_ok &= self.quiet;
                } else {
                    det.round_ok &= self.quiet;
                    det.created[self.node as usize] = self.created;
                    det.consumed[self.node as usize] = self.consumed;
                }
                if det.acks > 0 {
                    Outcome::Nothing
                } else {
                    let balanced =
                        det.created.iter().sum::<u64>() == det.consumed.iter().sum::<u64>();
                    if det.round_ok && balanced && det.lock_free {
                        let vector = (det.created.clone(), det.consumed.clone());
                        if det.last_vector.as_ref() == Some(&vector) {
                            det.confirmations += 1;
                        } else {
                            det.confirmations = 1;
                            det.last_vector = Some(vector);
                        }
                        if det.confirmations >= 2 {
                            det.done = true;
                            Outcome::Terminate
                        } else {
                            // Run the second confirmation round.
                            det.round += 1;
                            det.acks = workers as usize + 1;
                            det.round_ok = true;
                            Outcome::NextRound
                        }
                    } else {
                        // Aborted round: someone was transiently active.
                        // If the stored picture still looks terminated,
                        // immediately try again — no further Status may
                        // ever arrive to re-trigger us.
                        det.last_vector = None;
                        det.confirmations = 0;
                        let all_parked = det.parked.iter().all(|&p| p);
                        let balanced =
                            det.created.iter().sum::<u64>() == det.consumed.iter().sum::<u64>();
                        if all_parked && balanced {
                            det.round += 1;
                            det.acks = workers as usize + 1;
                            det.round_ok = true;
                            Outcome::NextRound
                        } else {
                            Outcome::Nothing
                        }
                    }
                }
            }
        };
        match outcome {
            Outcome::Nothing => {}
            Outcome::NextRound => probe_all(ctx, fns),
            Outcome::Terminate => {
                ctx.mark("groebner-done");
                let workers = ctx.user::<GrobNode>().workers;
                for w in 0..workers {
                    ctx.invoke(NodeId(w), FuncId(fns.stop), ArgsWriter::new().finish());
                }
            }
        }
        ctx.end();
    }
}

// ---------------------------------------------------------------------------
// Run driver

/// Result of a parallel Gröbner run.
pub struct GroebnerRun {
    /// The computed basis (from node 0's cache).
    pub basis: Vec<Poly>,
    /// Virtual time to the `groebner-done` mark.
    pub elapsed: VirtualDuration,
    /// Total pairs reduced across workers (the parallel "work").
    pub pairs_reduced: u64,
    /// Raw runtime report.
    pub report: earth_rt::RunReport,
    /// earth-profile data (`Some` exactly when [`RunOpts::profile`] was set).
    pub profile: Option<earth_rt::RunProfile>,
}

/// Run parallel Buchberger completion on a fault-free `nodes`-node MANNA,
/// under the inflated message-passing cost model when `comm_sync_us` is
/// given.
pub fn run_groebner(
    ring: &Ring,
    input: &[Poly],
    nodes: u16,
    seed: u64,
    strategy: SelectionStrategy,
    comm_sync_us: Option<u64>,
) -> GroebnerRun {
    run_groebner_on(ring, input, strategy, manna_opts(nodes, seed, comm_sync_us))
}

/// Like [`run_groebner`] with earth-profile collection on. Kept for the
/// benchmark harness; new callers use [`run_groebner_on`].
pub fn run_groebner_profiled(
    ring: &Ring,
    input: &[Poly],
    nodes: u16,
    seed: u64,
    strategy: SelectionStrategy,
    comm_sync_us: Option<u64>,
) -> GroebnerRun {
    let opts = manna_opts(nodes, seed, comm_sync_us).profiled();
    run_groebner_on(ring, input, strategy, opts)
}

fn manna_opts(nodes: u16, seed: u64, comm_sync_us: Option<u64>) -> RunOpts {
    let cfg = MachineConfig::manna(nodes);
    let cfg = match comm_sync_us {
        Some(us) => cfg.with_message_passing(us),
        None => cfg,
    };
    RunOpts::new(cfg, seed)
}

/// Run parallel Buchberger completion as `opts` describes, over
/// `opts.cfg.nodes` nodes (one reserved for termination detection when
/// there are at least two), with ±3% latency jitter added to the supplied
/// machine. Under a fault plan the reliability layer makes every protocol
/// message (locks, basis broadcasts, pair traffic, termination tokens)
/// exactly-once, and the checkpoint/recovery plane replays work lost to a
/// crash, so the computed basis is identical to the fault-free run's —
/// only virtual time degrades.
pub fn run_groebner_on(
    ring: &Ring,
    input: &[Poly],
    strategy: SelectionStrategy,
    mut opts: RunOpts,
) -> GroebnerRun {
    let (nodes, seed, profile) = (opts.cfg.nodes, opts.seed, opts.profile);
    assert!(nodes >= 1);
    let workers: u16 = if nodes == 1 { 1 } else { nodes - 1 };
    let detector: Option<NodeId> = (nodes >= 2).then(|| NodeId(nodes - 1));
    opts.cfg = opts.cfg.with_jitter(0.03);
    let mut rt = opts.runtime();

    // Register protocol functions.
    #[allow(clippy::field_reassign_with_default)]
    let fns = {
        let mut fns = ProtoFns::default();
        fns.add_poly = rt
            .register("gb-add-poly", |a| {
                let id = a.u32();
                let inserter = a.u16();
                let bytes = a.bytes().to_vec().into_boxed_slice();
                Box::new(AddPoly {
                    id,
                    inserter,
                    bytes,
                })
            })
            .0;
        fns.lock_grant = rt
            .register("gb-lock-grant", |a| Box::new(LockGrant { nbasis: a.u32() }))
            .0;
        fns.pair_request = rt
            .register("gb-pair-request", |a| {
                Box::new(PairRequest {
                    origin: a.u16(),
                    hops: a.u16(),
                })
            })
            .0;
        fns.pair_grant = rt
            .register("gb-pair-grant", |a| {
                Box::new(PairGrant {
                    i: a.u32(),
                    j: a.u32(),
                })
            })
            .0;
        fns.probe = rt
            .register("gb-probe", |a| {
                Box::new(Probe {
                    round: a.u32(),
                    mgr: a.u8() == 1,
                })
            })
            .0;
        fns.probe_ack = rt
            .register("gb-probe-ack", |a| {
                Box::new(ProbeAck {
                    round: a.u32(),
                    mgr: a.u8() == 1,
                    node: a.u16(),
                    quiet: a.u8() == 1,
                    created: a.u64(),
                    consumed: a.u64(),
                })
            })
            .0;
        fns.stop = rt.register("gb-stop", |_| Box::new(Stop)).0;
        fns.status = rt
            .register("gb-status", |a| {
                Box::new(Status {
                    worker: a.u16(),
                    parked: a.u8() == 1,
                    created: a.u64(),
                    consumed: a.u64(),
                })
            })
            .0;
        fns.lock_req = rt
            .register("gb-lock-req", |a| Box::new(LockReq { worker: a.u16() }))
            .0;
        fns.unlock = rt
            .register("gb-unlock", |a| Box::new(Unlock { worker: a.u16() }))
            .0;
        fns.add_poly_req = rt
            .register("gb-add-poly-req", |a| {
                let worker = a.u16();
                let bytes = a.bytes().to_vec().into_boxed_slice();
                Box::new(AddPolyReq { worker, bytes })
            })
            .0;
        fns
    };
    let worker_fn = rt.register("gb-worker", |_| Box::new(Worker));

    // Central solution-set status word on node 0.
    let status_addr = rt.alloc_on(NodeId(0), 8);
    // (initialized to the input count once states exist, below)

    // Host-side setup: replicate the inputs, seed the initial pairs.
    let inputs_monic: Vec<Poly> = input
        .iter()
        .filter(|p| !p.is_zero())
        .map(Poly::monic)
        .collect();
    let leads: Vec<Monomial> = inputs_monic.iter().map(|p| p.lead().m).collect();
    let mut initial_pairs: Vec<(u32, u32)> = Vec::new();
    let mut skip_p = 0usize;
    let mut skip_c = 0usize;
    for j in 1..leads.len() {
        for (i, _) in select_new_pairs(&leads[..=j], j, &mut skip_p, &mut skip_c) {
            initial_pairs.push((i as u32, j as u32));
        }
    }
    let mut shuffle_rng = Rng::new(seed ^ 0x6B);
    shuffle_rng.shuffle(&mut initial_pairs);

    for node in 0..nodes {
        let mut st = GrobNode {
            ring: ring.clone(),
            strategy,
            cache: Vec::new(),
            leads: Vec::new(),
            sugars: Vec::new(),
            contiguous: 0,
            queue: BinaryHeap::new(),
            deferred: Vec::new(),
            pending_inserts: VecDeque::new(),
            lock_requested: false,
            lock_granted: None,
            awaiting_own_insert: false,
            created: 0,
            consumed: 0,
            parked: false,
            worker_slot: None,
            stop: false,
            starving: VecDeque::new(),
            requested_work: false,
            pair_seq: node as u64 * 1_000_003,
            reductions: 0,
            mgr: (node == 0).then(|| ManagerState {
                lock_held_by: None,
                lock_queue: VecDeque::new(),
                basis_count: inputs_monic.len() as u32,
            }),
            det: (detector == Some(NodeId(node))).then(|| DetectorState {
                parked: vec![false; workers as usize],
                created: vec![0; workers as usize],
                consumed: vec![0; workers as usize],
                round: 0,
                acks: 0,
                round_ok: false,
                lock_free: false,
                last_vector: None,
                confirmations: 0,
                done: false,
            }),
            fns,
            workers,
            detector,
            status_addr,
            status_scratch: 0,
            current_pair: None,
        };
        for (id, p) in inputs_monic.iter().enumerate() {
            st.cache_insert(id as u32, p.clone());
        }
        rt.set_state(NodeId(node), st);
    }
    rt.write_mem(status_addr, &(inputs_monic.len() as u32).to_le_bytes());
    // Round-robin the shuffled initial pairs over the workers.
    for (k, &(i, j)) in initial_pairs.iter().enumerate() {
        let w = (k % workers as usize) as u16;
        let st = rt.state_mut::<GrobNode>(NodeId(w));
        st.push_pair(i, j);
        st.created += 1;
    }
    for w in 0..workers {
        rt.inject_invoke(NodeId(w), worker_fn, ArgsWriter::new().finish());
    }

    let report = rt.run();
    let done = report.mark("groebner-done").unwrap_or_else(|| {
        let mut dump = String::new();
        for w in 0..nodes {
            let st = rt.state::<GrobNode>(NodeId(w));
            dump.push_str(&format!(
                "\nn{w}: parked={} q={} defer={} pend={} lockreq={} granted={:?} await_own={} created={} consumed={} contig={} stop={}",
                st.parked, st.queue.len(), st.deferred.len(), st.pending_inserts.len(),
                st.lock_requested, st.lock_granted, st.awaiting_own_insert,
                st.created, st.consumed, st.contiguous, st.stop,
            ));
            if let Some(m) = &st.mgr {
                dump.push_str(&format!(" MGR held={:?} queue={:?} count={}", m.lock_held_by, m.lock_queue, m.basis_count));
            }
            if let Some(d) = &st.det {
                dump.push_str(&format!(" DET parked={:?} created={:?} consumed={:?} acks={} round={}", d.parked, d.created, d.consumed, d.acks, d.round));
            }
        }
        panic!("groebner run did not terminate:{dump}");
    });
    let pairs_reduced = (0..workers)
        .map(|w| rt.state::<GrobNode>(NodeId(w)).reductions)
        .sum();
    let basis = rt
        .state::<GrobNode>(NodeId(0))
        .known_basis()
        .into_iter()
        .cloned()
        .collect();
    let profile = profile.then(|| rt.take_profile());
    GroebnerRun {
        basis,
        elapsed: done.since(VirtualTime::ZERO),
        pairs_reduced,
        report,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_algebra::buchberger::{buchberger, is_groebner, reduce_basis};
    use earth_algebra::cost::sequential_runtime;
    use earth_algebra::inputs::{katsura, lazard};

    fn check(ring: &Ring, input: &[Poly], nodes: u16, seed: u64) -> GroebnerRun {
        let run = run_groebner(ring, input, nodes, seed, SelectionStrategy::Sugar, None);
        assert!(
            is_groebner(ring, &run.basis),
            "parallel result is not a Groebner basis ({nodes} nodes)"
        );
        let (seq_basis, _) = buchberger(ring, input, SelectionStrategy::Sugar);
        assert_eq!(
            reduce_basis(ring, &run.basis),
            reduce_basis(ring, &seq_basis),
            "parallel and sequential bases generate different ideals"
        );
        run
    }

    #[test]
    fn single_node_completes_lazard() {
        let (ring, input) = lazard();
        let run = check(&ring, &input, 1, 1);
        assert!(run.pairs_reduced > 0);
    }

    #[test]
    fn two_nodes_one_worker_plus_detector() {
        let (ring, input) = lazard();
        check(&ring, &input, 2, 3);
    }

    #[test]
    fn five_nodes_complete_katsura3() {
        let (ring, input) = katsura(3);
        let run = check(&ring, &input, 5, 7);
        // several workers actually reduced something
        assert!(run.pairs_reduced >= 10);
    }

    #[test]
    fn eight_nodes_complete_katsura4() {
        let (ring, input) = katsura(4);
        let run = check(&ring, &input, 8, 11);
        assert!(run.report.net_messages > 100);
    }

    #[test]
    fn different_seeds_vary_the_work() {
        let (ring, input) = katsura(3);
        let runs: Vec<u64> = (0..4)
            .map(|s| {
                run_groebner(&ring, &input, 5, s, SelectionStrategy::Sugar, None).pairs_reduced
            })
            .collect();
        // The intrinsic indeterminism: not all runs do identical work.
        assert!(
            runs.iter().any(|&r| r != runs[0]) || runs.len() < 2,
            "expected work variation across seeds, got {runs:?}"
        );
    }

    #[test]
    fn message_passing_overhead_slows_completion() {
        let (ring, input) = katsura(3);
        let earth = run_groebner(&ring, &input, 5, 2, SelectionStrategy::Sugar, None);
        let mp = run_groebner(&ring, &input, 5, 2, SelectionStrategy::Sugar, Some(1000));
        assert!(
            mp.elapsed.as_us_f64() > 1.2 * earth.elapsed.as_us_f64(),
            "earth {} vs mp1000 {}",
            earth.elapsed,
            mp.elapsed
        );
    }

    #[test]
    fn parallel_speedup_exists() {
        let (ring, input) = katsura(4);
        let (_, stats) = buchberger(&ring, &input, SelectionStrategy::Sugar);
        let seq = sequential_runtime(&stats);
        let run = run_groebner(&ring, &input, 8, 5, SelectionStrategy::Sugar, None);
        let speedup = seq.as_us_f64() / run.elapsed.as_us_f64();
        assert!(speedup > 2.0, "7-worker speedup only {speedup}");
    }
}
