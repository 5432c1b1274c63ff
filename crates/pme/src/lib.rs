//! # pme — full electrostatics: Ewald summation and particle-mesh Ewald
//!
//! The paper's benchmarks are cutoff simulations, but its introduction is
//! explicit that full long-range electrostatics "may be calculated via an
//! efficient combination of global grid-based and cutoff atom-based
//! components", with the grid part's parallelization the subject of ongoing
//! work [14, 16]. This crate builds that substrate from scratch:
//!
//! * [`ewald`] — classical Ewald summation: screened real-space sum, exact
//!   direct k-space reciprocal sum, self-energy and exclusion corrections.
//!   Validated against the Madelung constant of rock salt.
//! * [`fft`] — an iterative radix-2 complex FFT and 3-D transforms (no
//!   external FFT dependency).
//! * [`mesh`] — smooth particle-mesh Ewald (Essmann et al. 1995): B-spline
//!   charge spreading, influence-function convolution via FFT, analytic
//!   force gathering. Validated against the direct k-space sum.
//! * [`md`] — a sequential full-electrostatics force provider combining
//!   mdcore's Ewald-mode real-space kernels with PME: the reference the
//!   engine's PME is tested against.
//!
//! The engine in `namd-core` runs this pipeline on its slab objects via
//! `SimConfig::pme`: in Counted mode it models the parallel cost
//! (slab-decomposed FFTs, transpose all-to-all); in Real mode the slabs
//! evaluate the reciprocal sum here, every `PmeSimConfig::every` steps
//! (r-RESPA), on every backend but `proc`.

// Clippy: indexed loops are kept where they mirror the mathematical
// notation of the kernels and the per-axis geometry code, and chare/builder
// constructors take positional wiring arguments by design.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#![allow(clippy::field_reassign_with_default)]
pub use mdcore::erf;
pub mod ewald;
pub mod fft;
pub mod md;
pub mod mesh;
