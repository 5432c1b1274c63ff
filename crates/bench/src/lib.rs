//! # namd-bench — the harness that regenerates every table and figure of
//! the SC 2000 NAMD paper.
//!
//! Each binary in `src/bin/` reproduces one artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — performance audit, ApoA-I on 1024 PEs |
//! | `table2` | Table 2 — ApoA-I speedups on ASCI-Red |
//! | `table3` | Table 3 — BC1 speedups on ASCI-Red |
//! | `table4` | Table 4 — bR speedups on ASCI-Red |
//! | `table5` | Table 5 — ApoA-I speedups on T3E-900 |
//! | `table6` | Table 6 — ApoA-I speedups on Origin 2000 |
//! | `fig1_fig2` | Figures 1-2 — grainsize histograms before/after splitting |
//! | `fig3_fig4` | Figures 3-4 — timelines before/after multicast optimization |
//! | `ablation` | design-choice ablations (LB strategy, proxy-awareness, ...) |
//!
//! Criterion benches in `benches/` cover the kernels, the decomposition
//! build, the LB strategies, and real-multicore stepping.

// Clippy: indexed loops are kept where they mirror the mathematical
// notation of the kernels and the per-axis geometry code, and chare/builder
// constructors take positional wiring arguments by design.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#![allow(clippy::field_reassign_with_default)]
pub mod paper;
pub mod speedup;

pub use speedup::{run_speedup_table, SpeedupRow};
