//! # namd-core — the paper's contribution
//!
//! A reproduction of NAMD's parallel structure from *Scalable Molecular
//! Dynamics for Large Biomolecular Systems* (SC 2000):
//!
//! * a **patch grid** of cubes slightly larger than the cutoff
//!   ([`patchgrid`]);
//! * **hybrid force/spatial decomposition** into ~14 migratable compute
//!   objects per patch, with grainsize-control splitting of self computes
//!   and face-adjacent pair computes ([`decomp`], §4.2.1);
//! * **home/proxy patches** and a fully message-driven timestep protocol on
//!   the `charmrt` runtime, including the costed naive/optimized coordinate
//!   multicast ([`chares`], §4.2.3);
//! * **measurement-based load balancing**: initial RCB placement, a
//!   measurement phase, the greedy strategy, and the refinement pass
//!   ([`engine`], §3.2);
//! * the **performance audit** of Table 1 ([`audit`]);
//! * a **backend-agnostic runtime layer**: every phase runs against the
//!   `charmrt::Runtime` trait, on either the deterministic DES (modeled
//!   virtual time) or real worker threads (measured wall-clock loads) —
//!   selected by `SimConfig::backend`;
//! * a sequential-looking facade over the engine for the benchmark and
//!   the tests ([`parallel`]).
//!
//! ## Quick example
//!
//! ```
//! use namd_core::prelude::*;
//! use namd_core::recovery::{advance, Advanced};
//! use mdcore::prelude::Vec3;
//!
//! // A small synthetic system on 8 virtual processors of an ASCI-Red-like
//! // machine, with the paper's greedy+refine load balancing.
//! let system = molgen::SystemBuilder::new(molgen::SystemSpec {
//!     name: "demo",
//!     box_lengths: Vec3::new(36.0, 36.0, 36.0),
//!     target_atoms: 3000,
//!     protein_chains: 1,
//!     protein_chain_len: 30,
//!     lipid_slab: None,
//!     cutoff: 8.0,
//!     seed: 1,
//! })
//! .build();
//! let config = SimConfig::new(8, machine::presets::asci_red());
//! let mut engine = Engine::new(system, config);
//! // Three 3-step phases: the static placement is measured, greedy runs at
//! // step 3 and refinement at step 6.
//! let mut times = Vec::new();
//! for k in 1..=3 {
//!     match advance(&mut engine, 3 * k, 3, Some(9), false).unwrap() {
//!         Advanced::Phase { phase, .. } => times.push(phase.time_per_step),
//!         Advanced::RolledBack { .. } => unreachable!("no fault plan"),
//!     }
//! }
//! assert!(times[2] <= times[0] * 1.05);
//! ```

// Clippy: indexed loops are kept where they mirror the mathematical
// notation of the kernels and the per-axis geometry code, and chare/builder
// constructors take positional wiring arguments by design.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#![allow(clippy::field_reassign_with_default)]
pub mod audit;
pub mod chares;
pub mod config;
pub mod costmodel;
pub mod decomp;
pub mod engine;
pub mod nbcache;
pub mod messages;
pub mod oracle;
pub mod parallel;
pub mod patchgrid;
pub mod recovery;
#[cfg(test)]
mod scenario_tests;
pub mod state;

/// Convenient import surface: the stable entry points — [`Engine`],
/// [`ParallelSim`], [`SimConfig`] and its builder, the per-phase
/// [`PhaseMetrics`], the oracle check functions, and the observability
/// registry.
///
/// [`Engine`]: crate::engine::Engine
/// [`ParallelSim`]: crate::parallel::ParallelSim
/// [`SimConfig`]: crate::config::SimConfig
/// [`PhaseMetrics`]: profile::PhaseMetrics
pub mod prelude {
    pub use crate::audit::{audit, Audit, AuditRow};
    pub use crate::config::{
        Backend, ConfigError, ForceMode, LbStrategy, PmeSimConfig, SimConfig,
        SimConfigBuilder, Thermostat,
    };
    pub use crate::decomp::{build as build_decomposition, ComputeKind, Decomposition};
    pub use crate::engine::{topology_hash, Engine, PhaseCrash, PhaseResult};
    pub use crate::oracle::{check_phase, check_phase_with, OracleParams, OracleReport};
    pub use crate::parallel::{ParallelSim, ParallelSimError};
    pub use crate::patchgrid::{PatchGrid, PatchId};
    pub use crate::state::StepAcc;
    pub use profile::{
        ChromeTraceWriter, LbAudit, MetricsRegistry, PairlistCounters, PhaseMetrics, PhaseProfile,
    };
}
