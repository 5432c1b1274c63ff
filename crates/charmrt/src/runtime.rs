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
use crate::fault::FaultPlan;
use crate::ldb::LdbDatabase;
use crate::msg::{EntryId, ObjId, Payload, Pe, Priority};
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

/// A message-driven execution substrate. See the module docs.
pub trait Runtime {
    /// Number of processing elements (virtual PEs or worker threads).
    fn n_pes(&self) -> usize;

    /// Register an entry method by name; returns its id. Must be called
    /// for every entry before any object uses it.
    fn register_entry(&mut self, name: &str) -> EntryId;

    /// Register an object on a PE. `migratable` controls whether its load
    /// is measured per-object (true) or folded into the PE's background
    /// load. Ids are assigned densely in registration order on every
    /// backend, so an object graph built twice gets identical ids.
    fn register(&mut self, obj: Box<dyn Chare>, pe: Pe, migratable: bool) -> ObjId;

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
    /// seconds on real ones.
    fn run(&mut self) -> f64;

    /// Like [`Runtime::run`], but backends with a no-progress watchdog
    /// return [`RunStall`] instead of spinning forever when quiescence can
    /// never be reached (a dropped message under fault injection). On a
    /// stall, undelivered queued messages are preserved for a repair
    /// re-run. The default covers backends that cannot wedge: a drained
    /// event queue *is* their quiescence.
    fn try_run(&mut self) -> Result<f64, RunStall> {
        Ok(self.run())
    }

    /// Install a seeded dequeue-order perturbation, consulted for every
    /// subsequently delivered message. Install before injecting.
    fn set_schedule_policy(&mut self, _policy: SchedulePolicy) {}

    /// Install a fault plan applied to every subsequent send. Panics if a
    /// rule names an unregistered entry method.
    fn set_fault_plan(&mut self, _plan: FaultPlan) {}

    /// Re-send every dead-lettered (dropped) message — modeling the
    /// sender's retransmission after a delivery timeout. Returns how many
    /// were re-sent; call `run`/`try_run` again afterwards to process them.
    fn redeliver_dead_letters(&mut self) -> usize {
        0
    }

    /// The PE felled by a [`crate::FaultAction::Kill`] rule during the
    /// last run, if any. A crashed run can never be repaired by message
    /// redelivery — the caller must abandon this runtime and recover from
    /// a checkpoint. Default: no kill faults, never crashed.
    fn crashed(&self) -> Option<Pe> {
        None
    }

    /// Summary-profile instrumentation accumulated so far.
    fn stats(&self) -> &SummaryStats;

    /// The event trace (empty unless tracing was enabled).
    fn trace(&self) -> &Trace;

    /// Enable or disable full event tracing.
    fn set_tracing(&mut self, on: bool);

    /// The load-balancing measurement database.
    fn ldb(&self) -> &LdbDatabase;

    /// Current object→PE placement, indexed by `ObjId`.
    fn placement(&self) -> &[Pe];

    /// The PE an object currently lives on.
    fn pe_of(&self, obj: ObjId) -> Pe {
        self.placement()[obj.idx()]
    }

    /// Move an object to another PE. Takes effect for subsequent delivery
    /// (between runs / phases); measurement attribution follows.
    fn migrate(&mut self, obj: ObjId, pe: Pe);

    /// Immutable access to a registered object (read results after a run).
    fn object(&self, obj: ObjId) -> &dyn Chare;

    /// Mutable access to a registered object between runs.
    fn object_mut(&mut self, obj: ObjId) -> &mut dyn Chare;

    /// Set per-PE speed factors (1.0 = nominal). Meaningful on modeled
    /// backends only; real backends run at whatever speed the hardware
    /// delivers and ignore this.
    fn set_pe_speeds(&mut self, _speeds: Vec<f64>) {}
}

impl Runtime for crate::Des {
    fn n_pes(&self) -> usize {
        Self::n_pes(self)
    }
    fn register_entry(&mut self, name: &str) -> EntryId {
        Self::register_entry(self, name)
    }
    fn register(&mut self, obj: Box<dyn Chare>, pe: Pe, migratable: bool) -> ObjId {
        Self::register(self, obj, pe, migratable)
    }
    fn inject(
        &mut self,
        to: ObjId,
        entry: EntryId,
        bytes: usize,
        priority: Priority,
        payload: Payload,
    ) {
        Self::inject(self, to, entry, bytes, priority, payload)
    }
    fn run(&mut self) -> f64 {
        Self::run(self)
    }
    fn set_schedule_policy(&mut self, policy: SchedulePolicy) {
        Self::set_schedule_policy(self, policy)
    }
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        Self::set_fault_plan(self, plan)
    }
    fn redeliver_dead_letters(&mut self) -> usize {
        Self::redeliver_dead_letters(self)
    }
    fn crashed(&self) -> Option<Pe> {
        Self::crashed(self)
    }
    fn stats(&self) -> &SummaryStats {
        &self.stats
    }
    fn trace(&self) -> &Trace {
        &self.trace
    }
    fn set_tracing(&mut self, on: bool) {
        Self::set_tracing(self, on)
    }
    fn ldb(&self) -> &LdbDatabase {
        &self.ldb
    }
    fn placement(&self) -> &[Pe] {
        Self::placement(self)
    }
    fn migrate(&mut self, obj: ObjId, pe: Pe) {
        Self::migrate(self, obj, pe)
    }
    fn object(&self, obj: ObjId) -> &dyn Chare {
        Self::object(self, obj)
    }
    fn object_mut(&mut self, obj: ObjId) -> &mut dyn Chare {
        Self::object_mut(self, obj)
    }
    fn set_pe_speeds(&mut self, speeds: Vec<f64>) {
        Self::set_pe_speeds(self, speeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::PRIO_NORMAL;
    use crate::{Des, ThreadRuntime};
    use machine::presets;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// Forwards `hops` times around the registered ring, counting every
    /// invocation on a shared counter.
    struct RingNode {
        next: Option<(ObjId, EntryId)>,
        remaining: u32,
        counter: Arc<AtomicU32>,
    }

    impl Chare for RingNode {
        fn receive(&mut self, _e: EntryId, _p: Payload, ctx: &mut crate::Ctx) {
            self.counter.fetch_add(1, Ordering::SeqCst);
            ctx.add_work(10.0);
            if self.remaining > 0 {
                self.remaining -= 1;
                if let Some((to, entry)) = self.next {
                    ctx.signal(to, entry, PRIO_NORMAL);
                }
            }
        }
    }

    /// The same generic driver runs against any backend — the point of the
    /// abstraction. Ids are dense in registration order on every backend,
    /// so the two ring nodes can name each other up front.
    fn drive_ring<R: Runtime>(rt: &mut R) -> (f64, u32) {
        let counter = Arc::new(AtomicU32::new(0));
        let e = rt.register_entry("ring");
        let (a, b) = (ObjId(0), ObjId(1));
        let id_a = rt.register(
            Box::new(RingNode { next: Some((b, e)), remaining: 3, counter: counter.clone() }),
            0,
            true,
        );
        let id_b = rt.register(
            Box::new(RingNode { next: Some((a, e)), remaining: 3, counter: counter.clone() }),
            rt.n_pes() - 1,
            true,
        );
        assert_eq!((id_a, id_b), (a, b));
        rt.inject(a, e, 0, PRIO_NORMAL, Vec::new());
        let t = rt.run();
        (t, counter.load(Ordering::SeqCst))
    }

    #[test]
    fn des_and_threads_run_the_same_object_graph() {
        let mut des = Des::new(2, presets::ideal());
        let (t_des, hits_des) = drive_ring(&mut des);
        let mut threads = ThreadRuntime::new(2);
        let (t_thr, hits_thr) = drive_ring(&mut threads);

        // 1 bootstrap + 3 forwards each way = 7 handler executions.
        assert_eq!(hits_des, 7);
        assert_eq!(hits_thr, hits_des);
        assert!(t_des > 0.0);
        assert!(t_thr > 0.0);
        assert_eq!(des.stats.entry_count[0], 7);
        assert_eq!(threads.stats.entry_count[0], 7);
    }

    #[test]
    fn both_backends_fill_the_ldb() {
        let mut des = Des::new(2, presets::ideal());
        drive_ring(&mut des);
        let snap = des.ldb.snapshot(Runtime::placement(&des));
        assert_eq!(snap.objects.len(), 2);
        assert!(snap.objects.iter().all(|o| o.load > 0.0), "des: {:?}", snap.objects);

        let mut thr = ThreadRuntime::new(2);
        drive_ring(&mut thr);
        let snap = thr.ldb.snapshot(Runtime::placement(&thr));
        assert_eq!(snap.objects.len(), 2);
        assert!(snap.objects.iter().all(|o| o.load > 0.0), "threads: {:?}", snap.objects);
    }
}
