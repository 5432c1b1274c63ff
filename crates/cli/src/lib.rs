//! # namd-cli — the `namd-rs` command-line front end
//!
//! NAMD is driven by plain-text configuration files; this crate provides
//! the same experience for the reproduction: [`config`] parses a NAMD-style
//! `key value` config, [`runner`] executes it on the parallel engine at any
//! PE count — cutoff or full electrostatics (PME with r-RESPA), with the
//! thermostat inside the engine — with XYZ trajectory output. The `namd-rs`
//! binary adds `run`, `info`, `bench` (DES scaling sweeps), and
//! `sample-config` subcommands, plus `serve` (the many-tenant simulation
//! service; see the `serve` crate) and `analyze` (parallel trajectory
//! analysis over the `analyze` crate).

// Clippy: indexed loops are kept where they mirror the mathematical
// notation of the kernels and the per-axis geometry code, and chare/builder
// constructors take positional wiring arguments by design.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#![allow(clippy::field_reassign_with_default)]
pub mod analyze_cmd;
pub mod config;
pub mod runner;
pub mod serve_cmd;
