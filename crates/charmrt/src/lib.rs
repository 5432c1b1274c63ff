//! # charmrt — a Charm++/Converse-style message-driven runtime
//!
//! The substrate the paper's parallelization rests on (§2): applications are
//! decomposed into many more *data-driven objects* (chares) than processors;
//! all communication is object-to-object; a per-PE prioritized scheduler
//! picks the next available message and invokes the indicated entry method;
//! the runtime instruments every object and feeds a measurement-based
//! load-balancing framework that can remap objects between processors.
//!
//! ## Execution backends
//!
//! The original ran on real MPPs. Here a single backend-agnostic contract,
//! [`Runtime`], has three implementations:
//!
//! * [`Des`] — a deterministic **discrete-event simulator**: handlers run
//!   immediately (real Rust code mutating real data), while their *cost* —
//!   declared work units plus per-message send/receive/packing overheads —
//!   advances per-PE virtual clocks under a [`machine::MachineModel`].
//!   Scheduling decisions, queue priorities, load measurement, and object
//!   migration behave exactly as on a real machine; only wall-clock duration
//!   is modeled. This is the standard substitution for reproducing
//!   2048-processor scheduling research on a laptop (DESIGN.md §2).
//! * [`ThreadRuntime`] — **real OS worker threads**, one per PE, each with a
//!   prioritized message queue. The same chare graph executes concurrently;
//!   handler cost is *measured* wall-clock time, fed into the identical
//!   instrumentation so the measurement-based load balancer runs from real
//!   durations.
//! * [`ProcRuntime`] — **real OS processes**, one per PE, exchanging
//!   length-prefixed, CRC-checked frames of packed message bytes over Unix
//!   domain sockets through a thin Converse-style comm layer. The closest
//!   shape to the paper's multi-node deployments: PEs share nothing but
//!   the wire (and the checkpoint directory), and a killed worker is a
//!   real process failure the recovery path must survive.
//!
//! Payloads are owned wire bytes on every backend (see [`wire`]): one
//! pack/unpack boundary, bit-identical trajectories across all three.
//!
//! ## Pieces
//!
//! * [`chare::Chare`], [`chare::Ctx`] — the object model: receive a message,
//!   declare work, send messages (including costed naive/optimized
//!   multicasts, §4.2.3).
//! * [`runtime::Runtime`] — the backend-agnostic contract (register, inject,
//!   run-to-quiescence, migrate, harvest measurements). A backend supplies
//!   `inject`, `try_run`, `redeliver_dead_letters` and `set_pe_speeds`;
//!   every bookkeeping method is provided once over its
//!   [`runtime::RuntimeCore`] (object table, placement, measurement
//!   products, schedule policy, fault state, dead letters).
//! * `pe` (crate-private) — what a PE is whatever executes it: the queue
//!   entry and its one dequeue order, the meter that fills stats / trace /
//!   load database (and packs itself to cross a process boundary), and the
//!   fault applicator. All three backends call it; none re-implements it.
//! * [`backend::Backend`] — names the three backends and builds one.
//! * [`des::Des`] — owns the virtual clock, the event queue and the
//!   machine-model costing.
//! * [`threads::ThreadRuntime`] — owns the worker threads and their queues,
//!   the in-flight-counter quiescence and the no-progress watchdog.
//! * [`proc::ProcRuntime`] — owns the fork, the Unix-socket mesh, the probe
//!   rounds and the return of harvested object state.
//! * [`wire`] — owned byte payloads, [`WireCodec`], the entry table, CRC-64
//!   framing.
//! * [`sched::SchedulePolicy`] — seeded dequeue-order perturbations.
//! * [`fault`] — fault plans (drop / duplicate / delay / corrupt / kill) and
//!   their occurrence windows.
//! * [`stats::SummaryStats`] — per-entry-method summary profiles (§4.1).
//! * [`trace::Trace`] — Projections-style full traces: grainsize histograms
//!   (Figs 1-2) and text timelines (Figs 3-4).
//! * [`ldb`] — the load-balancing measurement database (§3.2).

// Clippy: indexed loops are kept where they mirror the mathematical
// notation of the kernels and the per-axis geometry code, and chare/builder
// constructors take positional wiring arguments by design.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#![allow(clippy::field_reassign_with_default)]
pub mod backend;
pub mod chare;
pub mod des;
pub mod fault;
pub mod ldb;
pub mod msg;
mod pe;
pub mod proc;
pub mod runtime;
pub mod sched;
pub mod stats;
pub mod threads;
pub mod trace;
pub mod wire;

pub use backend::Backend;
pub use chare::{Chare, Ctx, MulticastMode};
pub use des::Des;
pub use fault::{FaultAction, FaultPlan, FaultRule};
pub use ldb::{LdbDatabase, LdbSnapshot, ObjLoad};
pub use msg::{EntryId, ObjId, Payload, Pe, Priority, PRIO_HIGH, PRIO_LOW, PRIO_NORMAL};
pub use proc::ProcRuntime;
pub use runtime::{RunStall, Runtime, RuntimeCore};
pub use sched::{SchedulePolicy, SchedulePolicyKind};
pub use stats::SummaryStats;
pub use threads::ThreadRuntime;
pub use trace::{Histogram, Trace, TraceEvent};
pub use wire::{Dec, Enc, EntryTable, WireCodec, WireError, WireMsg};
