//! The backend-agnostic runtime abstraction.
//!
//! The paper's central architectural claim is that one message-driven
//! object graph — patches, proxies, computes — runs unchanged on any
//! substrate, with measurement-based load balancing and instrumentation
//! riding along for free. [`Runtime`] is that contract: register entry
//! methods and chares, inject bootstrap messages, run to quiescence, and
//! harvest the same three measurement products ([`SummaryStats`],
//! [`Trace`], [`LdbDatabase`]) regardless of what executed the handlers.
//!
//! Three backends implement it:
//!
//! * [`crate::Des`] — the deterministic discrete-event simulator. Handler
//!   *cost* is modeled (declared work + per-message overheads under a
//!   `machine::MachineModel`); `run` returns virtual seconds.
//! * [`crate::ThreadRuntime`] — real OS worker threads, one per PE, each
//!   with a prioritized message queue. Handler cost is *measured*
//!   wall-clock time; `run` returns wall seconds.
//! * [`crate::ProcRuntime`] — real OS processes, one per PE, exchanging
//!   CRC-framed packed messages over Unix domain sockets. Handler cost is
//!   measured wall-clock time; chare state crosses the process boundary
//!   via [`Chare::harvest_state`]/[`Chare::merge_state`].
//!
//! Because all of them feed per-object durations into the same
//! [`LdbDatabase`], the measure → greedy → refine → migrate load-balancing
//! cycle is written once and works from modeled durations on one backend
//! and measured durations on the others.

use crate::chare::Chare;
use crate::fault::{FaultPlan, FaultState};
use crate::ldb::LdbDatabase;
use crate::msg::{EntryId, ObjId, Payload, Pe, Priority};
use crate::pe::{Letter, Meter};
use crate::sched::SchedulePolicy;
use crate::stats::SummaryStats;
use crate::trace::Trace;

/// A run wedged short of quiescence: the no-progress watchdog saw every
/// worker idle while quiescence counters say messages are still in flight
/// (e.g. a fault plan dropped one). The protocol layer can repair this by
/// re-sending dead letters ([`Runtime::redeliver_dead_letters`]) and
/// re-running.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStall {
    /// Makespan up to the stall, seconds.
    pub makespan: f64,
    /// Sends still unmatched by receives when the watchdog fired.
    pub in_flight: u64,
    /// Dead-lettered messages available for redelivery.
    pub undelivered: usize,
}

impl std::fmt::Display for RunStall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "runtime stalled short of quiescence after {:.6}s: {} message(s) in flight, \
             {} dead letter(s) held for redelivery",
            self.makespan, self.in_flight, self.undelivered
        )
    }
}

impl std::error::Error for RunStall {}

/// Everything about a runtime that does not depend on what executes the
/// handlers: the object table and its placement, the measurement products,
/// the schedule policy, the installed fault plan and what it has cost so
/// far. Every backend holds one and hands it out through
/// [`Runtime::core`]; the trait's bookkeeping methods are written once
/// against it.
pub struct RuntimeCore {
    pub(crate) n_pes: usize,
    /// Indexed by `ObjId`; a slot is empty only while its object executes
    /// (DES) or is lent to the worker that owns it for a run (threads).
    pub(crate) objects: Vec<Option<Box<dyn Chare>>>,
    /// Object → PE, indexed by `ObjId`.
    pub(crate) obj_pe: Vec<Pe>,
    pub(crate) meter: Meter,
    /// Dequeue-order perturbation (default: native FIFO).
    pub(crate) policy: SchedulePolicy,
    /// Installed fault plan. Its occurrence counters persist across re-runs,
    /// so a `limit=1` drop rule does not re-drop its redelivery cascade.
    pub(crate) fault: Option<FaultState>,
    /// Messages the fault plan dropped, awaiting possible redelivery.
    pub(crate) dead_letters: Vec<Letter>,
    /// First PE felled by a kill fault, across all runs of this runtime.
    pub(crate) crashed: Option<Pe>,
}

impl RuntimeCore {
    pub(crate) fn new(n_pes: usize) -> RuntimeCore {
        assert!(n_pes > 0, "need at least one PE");
        RuntimeCore {
            n_pes,
            objects: Vec::new(),
            obj_pe: Vec::new(),
            meter: Meter::new(n_pes),
            policy: SchedulePolicy::default(),
            fault: None,
            dead_letters: Vec::new(),
            crashed: None,
        }
    }

    /// Whether sends get a payload CRC stamped: only worth the cycles when
    /// the installed plan can corrupt a payload.
    pub(crate) fn stamp_crc(&self) -> bool {
        self.fault.as_ref().is_some_and(|f| f.has_corruption())
    }
}

/// A message-driven execution substrate. See the module docs.
///
/// A backend supplies its [`RuntimeCore`] and the four things the
/// substrate decides — how a bootstrap message enters, how a run reaches
/// quiescence, how a lost message is re-sent, what a PE speed means;
/// everything else is provided.
pub trait Runtime {
    /// The substrate-independent state.
    fn core(&self) -> &RuntimeCore;

    /// Mutable access to the substrate-independent state.
    fn core_mut(&mut self) -> &mut RuntimeCore;

    /// Inject a bootstrap message from outside the object graph.
    fn inject(
        &mut self,
        to: ObjId,
        entry: EntryId,
        bytes: usize,
        priority: Priority,
        payload: Payload,
    );

    /// Run to quiescence (or until a handler calls `Ctx::stop`). Returns
    /// the makespan in seconds: virtual seconds on modeled backends, wall
    /// seconds on real ones. Backends with a no-progress watchdog return
    /// [`RunStall`] instead of spinning forever when quiescence can never
    /// be reached (a dropped message under fault injection); undelivered
    /// queued messages are then preserved for a repair re-run. A backend
    /// that cannot wedge — a drained event queue *is* the DES's
    /// quiescence — always returns `Ok`.
    fn try_run(&mut self) -> Result<f64, RunStall>;

    /// Re-send every dead-lettered (dropped) message — modeling the
    /// sender's retransmission after a delivery timeout. Redeliveries
    /// bypass the fault plan (the retry succeeds). Returns how many were
    /// re-sent; call `run`/`try_run` again afterwards to process them.
    fn redeliver_dead_letters(&mut self) -> usize;

    /// Set per-PE speed factors (1.0 = nominal). Meaningful on modeled
    /// backends only; real backends run at whatever speed the hardware
    /// delivers and ignore this.
    fn set_pe_speeds(&mut self, speeds: Vec<f64>);

    /// [`Runtime::try_run`] for runs that must complete: panics on a stall.
    fn run(&mut self) -> f64 {
        self.try_run().expect("quiescence unreachable")
    }

    /// Number of processing elements (virtual PEs, worker threads or
    /// worker processes).
    fn n_pes(&self) -> usize {
        self.core().n_pes
    }

    /// Register an entry method by name; returns its id. Must be called
    /// for every entry before any object uses it.
    fn register_entry(&mut self, name: &str) -> EntryId {
        self.core_mut().meter.stats.register_entry(name)
    }

    /// Register an object on a PE. `migratable` controls whether its load
    /// is measured per-object (true) or folded into the PE's background
    /// load. Ids are assigned densely in registration order on every
    /// backend, so an object graph built twice gets identical ids.
    fn register(&mut self, obj: Box<dyn Chare>, pe: Pe, migratable: bool) -> ObjId {
        let core = self.core_mut();
        assert!(pe < core.n_pes, "PE {pe} out of range ({} PEs)", core.n_pes);
        let id = ObjId(core.objects.len() as u32);
        core.objects.push(Some(obj));
        core.obj_pe.push(pe);
        core.meter.ldb.on_register(migratable);
        id
    }

    /// Install a seeded dequeue-order perturbation, consulted for every
    /// subsequently delivered message. Install before injecting:
    /// already-queued messages keep their keys.
    fn set_schedule_policy(&mut self, policy: SchedulePolicy) {
        self.core_mut().policy = policy;
    }

    /// Install a fault plan applied to every subsequent send. Panics if a
    /// rule names an unregistered entry method (a plan that can never
    /// match is a harness bug, not a no-op).
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        let core = self.core_mut();
        core.fault =
            Some(FaultState::install(plan, &core.meter.stats.entry_names).expect("bad fault plan"));
    }

    /// The PE felled by a [`crate::FaultAction::Kill`] rule during any run
    /// of this runtime, if any. A crashed run can never be repaired by
    /// message redelivery — the caller must abandon this runtime and
    /// recover from a checkpoint.
    fn crashed(&self) -> Option<Pe> {
        self.core().crashed
    }

    /// Summary-profile instrumentation accumulated so far.
    fn stats(&self) -> &SummaryStats {
        &self.core().meter.stats
    }

    /// The event trace (empty unless tracing was enabled).
    fn trace(&self) -> &Trace {
        &self.core().meter.trace
    }

    /// Enable or disable full event tracing.
    fn set_tracing(&mut self, on: bool) {
        self.core_mut().meter.tracing = on;
    }

    /// The load-balancing measurement database.
    fn ldb(&self) -> &LdbDatabase {
        &self.core().meter.ldb
    }

    /// Current object→PE placement, indexed by `ObjId`.
    fn placement(&self) -> &[Pe] {
        &self.core().obj_pe
    }

    /// The PE an object currently lives on.
    fn pe_of(&self, obj: ObjId) -> Pe {
        self.placement()[obj.idx()]
    }

    /// Move an object to another PE. Takes effect for subsequent delivery
    /// (between runs / phases); measurement attribution follows. No
    /// backend costs the move — the paper likewise excludes the load
    /// balancer's own cost from per-step times.
    fn migrate(&mut self, obj: ObjId, pe: Pe) {
        let core = self.core_mut();
        assert!(pe < core.n_pes);
        core.obj_pe[obj.idx()] = pe;
    }

    /// Immutable access to a registered object (read results after a run).
    fn object(&self, obj: ObjId) -> &dyn Chare {
        self.core().objects[obj.idx()].as_deref().expect("object is executing")
    }

    /// Mutable access to a registered object between runs.
    fn object_mut(&mut self, obj: ObjId) -> &mut dyn Chare {
        self.core_mut().objects[obj.idx()].as_deref_mut().expect("object is executing")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::PRIO_NORMAL;
    use crate::{Backend, Ctx, Des, ThreadRuntime};
    use machine::presets;
    use std::time::Duration;

    const LEAVES: u32 = 6;

    /// Object 0: on `fan`, sends every leaf five bytes; swallows their
    /// `ack`s. Neither chare counts anything itself — the runtime's stats
    /// are the only witness, so the graph also runs where PEs share no
    /// memory.
    struct Root {
        fan: EntryId,
    }

    impl Chare for Root {
        fn receive(&mut self, entry: EntryId, _p: Payload, ctx: &mut Ctx) {
            ctx.add_work(10.0);
            if entry == self.fan {
                for k in 1..=LEAVES {
                    ctx.send(ObjId(k), self.fan, 64, PRIO_NORMAL, vec![k as u8; 5]);
                }
            }
        }
    }

    /// Objects 1..=LEAVES: answer each `fan` with three bytes on `ack`.
    struct Leaf {
        ack: EntryId,
    }

    impl Chare for Leaf {
        fn receive(&mut self, _e: EntryId, _p: Payload, ctx: &mut Ctx) {
            ctx.add_work(10.0);
            ctx.send(ObjId(0), self.ack, 48, PRIO_NORMAL, vec![1, 2, 3]);
        }
    }

    /// The same driver builds the graph on any backend — the point of the
    /// abstraction. Ids are dense in registration order on every backend,
    /// so root and leaves can name each other up front.
    fn build_fan(rt: &mut dyn Runtime) {
        let fan = rt.register_entry("fan");
        let ack = rt.register_entry("ack");
        assert_eq!(rt.register(Box::new(Root { fan }), 0, true), ObjId(0));
        for k in 1..=LEAVES {
            let pe = k as usize % rt.n_pes();
            assert_eq!(rt.register(Box::new(Leaf { ack }), pe, true), ObjId(k));
        }
        rt.inject(ObjId(0), fan, 0, PRIO_NORMAL, Vec::new());
    }

    #[test]
    fn every_backend_runs_the_same_object_graph_to_the_same_accounting() {
        let n = LEAVES as u64;
        for backend in [Backend::Des, Backend::Threads, Backend::Proc] {
            for tracing in [false, true] {
                let mut rt = backend.runtime(2, presets::ideal(), None);
                build_fan(rt.as_mut());
                rt.set_tracing(tracing);
                assert!(rt.run() > 0.0, "{backend}");
                let s = rt.stats();
                let counts = (s.msgs_injected, s.msgs_sent, s.msgs_received, s.bytes_sent);
                assert_eq!(counts, (1, 2 * n, 2 * n + 1, n * (64 + 48)), "{backend}");
                assert_eq!(s.entry_count, [n + 1, n], "{backend}");
                assert_eq!(s.entry_wire_msgs, [n, n], "{backend}");
                assert_eq!(s.entry_wire_bytes, [5 * n, 3 * n], "{backend}");
                assert_eq!(s.conservation_residual(), 0, "{backend}");
                // One event per handler when tracing, none at all when not.
                let want = if tracing { 2 * n + 1 } else { 0 };
                assert_eq!(rt.trace().events.len() as u64, want, "{backend}");
            }
        }
    }

    #[test]
    fn des_and_threads_lose_and_repair_the_same_messages() {
        let n = LEAVES as u64;
        let mut des = Des::new(2, presets::ideal());
        let mut threads = ThreadRuntime::new(2);
        threads.set_stall_timeout(Duration::from_millis(100));
        let backends: [(&str, &mut dyn Runtime); 2] = [("des", &mut des), ("threads", &mut threads)];
        for (name, rt) in backends {
            build_fan(rt);
            let plan = "drop:entry=ack:limit=1 ; corrupt:entry=fan:limit=1";
            rt.set_fault_plan(FaultPlan::parse(plan).unwrap());
            // Short of completion either way: the DES drains its event
            // queue with work missing, the threads watchdog reports a stall.
            let _ = rt.try_run();
            let s = rt.stats();
            // The CRC rejection of the corrupted copy counts as a drop too.
            let lost = (s.msgs_dropped, s.msgs_corrupted, s.msgs_crc_rejected);
            assert_eq!(lost, (2, 1, 1), "{name}");
            assert_eq!(rt.redeliver_dead_letters(), 2, "{name}");
            rt.try_run().expect("the repair run completes");
            let s = rt.stats();
            assert_eq!(s.msgs_redelivered, 2, "{name}");
            assert_eq!(s.entry_count, [n + 1, n], "{name}");
            assert_eq!(s.conservation_residual(), 0, "{name}");
        }
    }

    #[test]
    fn both_backends_fill_the_ldb() {
        let mut des = Des::new(2, presets::ideal());
        let mut thr = ThreadRuntime::new(2);
        let backends: [(&str, &mut dyn Runtime); 2] = [("des", &mut des), ("threads", &mut thr)];
        for (name, rt) in backends {
            build_fan(rt);
            rt.run();
            let snap = rt.ldb().snapshot(rt.placement());
            assert_eq!(snap.objects.len(), 1 + LEAVES as usize);
            assert!(snap.objects.iter().all(|o| o.load > 0.0), "{name}: {:?}", snap.objects);
        }
    }
}
