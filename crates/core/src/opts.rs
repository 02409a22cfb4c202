//! [`RunOpts`]: the machine, seed and observers of one application run.

use earth_machine::MachineConfig;

use crate::Runtime;

/// How to run an application: the machine it runs on, the seed all its
/// randomness derives from, and whether earth-profile collection is on.
/// Each application has one general entry taking a `RunOpts`, so running
/// the same program on a different machine (faults, crashes, topology,
/// queue, message-passing costs) is a different value, not a different
/// function.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// The simulated machine, fault plan included.
    pub cfg: MachineConfig,
    /// Seed for the runtime and the application's own randomness.
    pub seed: u64,
    /// Collect an earth-profile ([`Runtime::enable_profile`]); free in
    /// virtual time, so the report is identical either way.
    pub profile: bool,
}

impl RunOpts {
    /// An unprofiled run on `cfg`.
    pub fn new(cfg: MachineConfig, seed: u64) -> Self {
        RunOpts {
            cfg,
            seed,
            profile: false,
        }
    }

    /// An unprofiled run on a fault-free `nodes`-node MANNA.
    pub fn manna(nodes: u16, seed: u64) -> Self {
        Self::new(MachineConfig::manna(nodes), seed)
    }

    /// The same run with earth-profile collection on.
    pub fn profiled(self) -> Self {
        RunOpts {
            profile: true,
            ..self
        }
    }

    /// The runtime this run executes on, profiling enabled if asked.
    pub fn runtime(self) -> Runtime {
        let mut rt = Runtime::new(self.cfg, self.seed);
        if self.profile {
            rt.enable_profile();
        }
        rt
    }
}
