//! Parallel trajectory analysis: a per-frame map and one final reduce.
//!
//! Biomolecular analysis has no communication between frames, so it runs
//! as a map over `std::thread::scope` workers that read the caller's frames
//! in place. It computes per-frame observables — RDF with periodic
//! minimum-image binning, Kabsch-aligned RMSD against a reference frame,
//! group contact maps, and mean-squared displacement → diffusion
//! coefficients — and folds the per-task partials in a fixed tree order.
//!
//! Determinism contract: the reduced observables are **bit-identical**
//! for any thread count, because the task decomposition and the fold
//! order depend only on the trajectory shape. The `obs_crc` checksum over
//! the packed reduced partial is the witness.
//!
//! Layers:
//!
//! * [`observables`] — per-task partial sums, merge, and finalization
//!   (the physics).
//! * [`driver`] — validates the input, maps the tasks over threads, folds
//!   the partials and checks that every task was covered.

pub mod driver;
pub mod observables;

pub use driver::{analyze_frames, msd_blocks, AnalysisRun, AnalyzeConfig, MAX_RDF_BINS};
pub use observables::{
    finalize, frame_partial, kabsch_rmsd, msd_partial, AnalyzeParams, Observables, Partial,
};
