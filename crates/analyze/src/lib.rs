//! Parallel trajectory analysis over the `charmrt` runtime.
//!
//! Biomolecular analysis is an embarrassingly parallel per-frame map plus
//! a tree reduce — the one communication shape the runtime had never been
//! exercised with (scatter/reduce over large payloads). This crate fans
//! trajectory frames out as *analysis chares* on any of the three
//! backends (DES, threads, processes), computes per-frame observables —
//! RDF with periodic minimum-image binning, Kabsch-aligned RMSD against a
//! reference frame, group contact maps, and mean-squared displacement →
//! diffusion coefficients — and combines them with a deterministic
//! pairwise reduce tree.
//!
//! Determinism contract: the reduced observables are **bit-identical**
//! across backends and PE counts, because the task decomposition and the
//! reduce-tree fold order depend only on the trajectory shape. The
//! `obs_crc` checksum over the packed reduced partial is the witness.
//!
//! Layers:
//!
//! * [`observables`] — per-task partial sums, merge, and finalization
//!   (the physics).
//! * [`messages`] — wire codecs for the frame scatter and the
//!   partial-observable reduce messages.
//! * [`chares`] — the task chare and its reduce-tree protocol.
//! * [`driver`] — builds the runtime, scatters, runs to quiescence,
//!   checks the scatter/reduce oracle, and records profiling.

pub mod chares;
pub mod driver;
pub mod messages;
pub mod observables;

pub use chares::{AnalyzeEntries, TaskChare};
pub use driver::{analyze_frames, msd_blocks, AnalysisRun, AnalyzeConfig};
pub use messages::{PartialMsg, TaskMsg};
pub use observables::{
    finalize, frame_partial, kabsch_rmsd, msd_partial, AnalyzeParams, Observables, Partial,
};
