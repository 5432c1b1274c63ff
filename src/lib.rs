//! Umbrella crate for the NAMD SC2000 reproduction workspace.
//!
//! Re-exports the member crates so integration tests can use a single
//! dependency root. The README follows; its library snippet is compiled as
//! this crate's doc test.
#![doc = include_str!("../README.md")]
// Clippy: indexed loops are kept where they mirror the mathematical
// notation of the kernels and the per-axis geometry code, and chare/builder
// constructors take positional wiring arguments by design.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#![allow(clippy::field_reassign_with_default)]
pub use analyze;
pub use charmrt;
pub use ckpt;
pub use lb;
pub use machine;
pub use mdcore;
pub use molgen;
pub use namd_core;
pub use pme;
pub use serve;
