//! Simulation service: a many-tenant job scheduler multiplexing hundreds
//! of concurrent MD jobs over one bounded engine pool.
//!
//! The NAMD SC2000 runtime gives this repo three guarantees the service
//! layer is built on: (1) trajectories are **bit-identical** across
//! backends and across phase slicings (migration fires on the global step
//! counter, so how a run is chopped into phases is invisible to the
//! physics); (2) [`namd_core::engine::Engine::restore`] is bit-exact at
//! decomposition-rebuild boundaries; (3) specs are fully deterministic
//! (system construction, thermalization, and integration are all seeded).
//!
//! Those three guarantees buy the service its three core moves:
//!
//! - **Time-slice preemption** ([`sched`]): long jobs run in bounded
//!   slices; at a slice boundary the job parks as an in-memory snapshot
//!   (taken only on multiples of its `migrateEvery`, per guarantee 2) and
//!   the PEs go back to the pool. A resumed job's trajectory is
//!   bit-identical to an uninterrupted run.
//! - **Content-addressed dedup** ([`spec`]): the hash of a canonicalized
//!   spec names its result forever (guarantee 3). Identical requests —
//!   concurrent or later — coalesce onto one execution.
//! - **Ensemble fan-out** ([`sched`]): one parent spec expands into a
//!   seed sweep of child jobs whose summaries tree-reduce pairwise into
//!   the parent result (the PFA pattern).
//!
//! Jobs come in two kinds ([`spec::JobKind`]): plain simulations, and
//! analysis jobs that additionally capture frames every `frameEvery`
//! steps and fan them out over the `analyze` crate's parallel observable
//! pass (RDF, RMSD, contacts, MSD → diffusion) on the same backend and
//! PE count, attaching an [`sched::AnalysisSummary`] to the outcome.
//! Both kinds share the pool, the fair-share queue, and the result cache.
//!
//! [`proto`]/[`server`] expose this over Unix or TCP sockets with the
//! same length-prefix + CRC64 framing the proc backend uses.
//! See DESIGN.md §3.9 for queue states, the fair-share policy, the cache
//! key definition, and the drain protocol.

pub mod json;
pub mod proto;
pub mod sched;
pub mod server;
pub mod spec;

pub use sched::{
    AnalysisSummary, JobId, JobOutcome, JobState, Scheduler, SchedulerConfig, ServeStats,
};
pub use spec::{CacheKey, JobKind, JobSpec};
