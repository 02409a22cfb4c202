//! The paper's applications, implemented on the EARTH runtime.
//!
//! Three applications from three classes of irregular, communication-
//! intensive programs (§1):
//!
//! * [`eigen`] — **Eigenvalue** (§3.1): a massive search problem. The
//!   ScaLAPACK bisection algorithm unfolds a dynamic, irregular search
//!   tree whose nodes are small (≈8 ms) tasks; tasks are `TOKEN`s under
//!   EARTH's dynamic load balancer, and each task's 28-byte argument
//!   record is fetched either by individual split-phase loads or by one
//!   block move (the two curves of Fig. 2).
//! * [`groebner`] — **Gröbner Basis** (§3.2): a completion procedure
//!   over shared data structures. Distributed per-node pair queues with
//!   local priorities, a replicated (read-cached) solution set with
//!   central maintenance and a lock, receiver-initiated pair balancing,
//!   and a dedicated termination-detection node. Intrinsically
//!   indeterministic: the processing order changes the work done.
//! * [`neural`] — **Neural networks** (§3.3): unit parallelism in a
//!   3-layer fully-connected feedforward net. Layers are sliced over
//!   nodes; a central node collects/distributes activations per phase
//!   through a tree-organized communication pattern (the sequential
//!   pattern is kept as an ablation).
//! * [`search`] — extension workloads from the search class the paper
//!   cites as already demonstrated on EARTH-MANNA (§3.1): Paraffins
//!   and a branch-and-bound TSP.
//!
//! Each module exposes a `run_*` entry point returning both the
//! *verified application result* (eigenvalues / Gröbner basis / network
//! outputs are checked against the sequential substrate) and the
//! simulated timing the benchmark harness turns into the paper's
//! figures. Each paper application has one general entry,
//! `run_{eigen,groebner,neural}_on`, taking an [`earth_rt::RunOpts`]:
//! faults, crashes, topology, queue, cost model and profiling are all
//! fields of that value, not separate functions.

pub mod eigen;
pub mod groebner;
pub mod neural;
pub mod search;
