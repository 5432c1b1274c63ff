//! Real-threads execution backend: the same chare graph the DES runs,
//! executed by OS worker threads with measured wall-clock instrumentation.
//!
//! One worker thread per PE, each with a prioritized message queue
//! (mirroring the per-PE scheduler of §2.2). A handler runs on the worker
//! that owns its object; its sends are queued at their destination owners
//! when it returns, exactly like the DES dispatch order.
//!
//! A PE's queue has two halves. The *heap* is a `BinaryHeap` only the
//! worker's own thread touches: a handler's sends to its own PE go there
//! with no lock. The *inbox* is a locked `Vec` that every other thread
//! appends to — sends from another PE, bootstrap and requeued letters,
//! one batch per handler and destination. Before each pop the worker moves
//! a non-empty inbox into its heap in one lock acquisition, numbering the
//! messages from its own per-PE sequence as it goes, so priorities and
//! every [`SchedulePolicy`] still decide the pop order. A send wakes the worker
//! only if it is asleep: the worker raises its `asleep` flag under the
//! inbox lock before it waits, and a sender reads it under the same lock,
//! so no wakeup can be lost. The wait has no timeout; a wakeup that never
//! came would leave the run idle and the watchdog would end it as a
//! [`RunStall`].
//!
//! Quiescence is detected by a global in-flight message counter: it
//! counts a message before it can be popped and releases it only after
//! its handler has run *and* its sends have been queued, so it can only
//! reach zero when no work remains.
//!
//! Measurement: every handler execution is timed with a monotonic clock
//! from a common epoch and recorded by the worker's own `pe::Meter` — the
//! same rules that fill the DES's [`crate::SummaryStats`], [`crate::Trace`]
//! and [`crate::LdbDatabase`] — so the measurement-based load-balancing
//! cycle runs unchanged on real hardware, from *measured* rather than
//! modeled durations. The makespan returned by [`Runtime::try_run`] is the
//! latest handler end time, which excludes thread spawn/join overhead.
//!
//! What this file owns is what the substrate decides: the worker queues,
//! the in-flight counter and the no-progress watchdog.
//!
//! Unlike the DES, execution order across workers is nondeterministic —
//! that is the point; programs must be written message-driven, and the
//! tests check outcomes, not schedules.

use crate::chare::Chare;
use crate::fault::FaultState;
use crate::msg::{EntryId, ObjId, Payload, Pe, Priority};
use crate::pe::{apply_fault, Fate, Letter, Meter, Queued, WallClock};
use crate::runtime::{RunStall, Runtime, RuntimeCore};
use crate::sched::SchedulePolicy;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtOrd};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A message on its way into a PE's heap, before the PE numbers it.
struct Arrival {
    msg: Letter,
    crc: Option<u64>,
    /// Queue it behind all normal work: what a *delayed* message becomes
    /// here, there being no virtual clock to postpone its delivery on.
    demoted: bool,
}

/// What other threads hand one PE's worker.
struct Inbox {
    letters: Vec<Arrival>,
    /// The worker is waiting on `available` (or about to, the lock being
    /// held): a sender must notify it.
    asleep: bool,
}

/// The shared half of one PE's scheduler. Aligned so that one PE's senders
/// and another PE's worker never write the same cache line.
#[repr(align(128))]
struct Mailbox {
    inbox: Mutex<Inbox>,
    /// `inbox.letters.len()`, readable without the lock: a worker with work
    /// in its heap takes the lock only when this is non-zero. A hint only
    /// (`Relaxed`): the letters themselves are read under the lock, and a
    /// worker whose heap runs dry takes the lock whatever this says.
    waiting: AtomicUsize,
    available: Condvar,
    /// Handlers this worker has run, published each time it parks or exits
    /// — the watchdog's progress signal.
    executed: AtomicU64,
}

/// The private half of one PE's scheduler: only its worker touches it.
#[derive(Default)]
struct Local {
    heap: BinaryHeap<Queued>,
    /// Per-PE arrival sequence: the tie-break, and the policies' input.
    seq: u64,
    /// One handler's sends to each other PE, posted together when it ends.
    outbox: Vec<Vec<Arrival>>,
    executed: u64,
}

impl Local {
    fn push(&mut self, policy: &SchedulePolicy, a: Arrival) {
        let mut queued = Queued::new(policy, self.seq, a.msg, a.crc);
        if a.demoted {
            queued.key = (i64::MAX, self.seq);
        }
        self.seq += 1;
        self.heap.push(queued);
    }
}

/// State shared by all workers during a run.
struct Sched {
    mailboxes: Vec<Mailbox>,
    /// Messages queued but whose handler (plus its sends' queueing) has
    /// not completed. Zero ⇒ quiescence.
    in_flight: AtomicU64,
    /// Set on quiescence or `Ctx::stop`; remaining queued messages drop.
    done: AtomicBool,
    /// What the watchdog waits on between its stall checks, so that
    /// [`Sched::shutdown`] ends its wait instead of the next tick.
    watch: Mutex<()>,
    ended: Condvar,
    /// Object → owning worker, frozen for the duration of the run.
    obj_pe: Vec<Pe>,
    clock: WallClock,
    /// Dequeue-order perturbation (default: native FIFO).
    policy: SchedulePolicy,
    /// Installed fault plan, if any (shared occurrence counters).
    fault: Option<Mutex<FaultState>>,
    /// True when the fault plan holds a corrupt rule: every send gets a
    /// payload CRC stamped so flipped bytes are caught at delivery.
    stamp_crc: bool,
    /// Workers currently parked waiting for a message.
    idle: AtomicU64,
    /// Set by the watchdog when quiescence can never be reached.
    stalled: AtomicBool,
    /// Per-PE kill flags: a dead worker exits its loop (counting itself
    /// permanently idle so the watchdog still works for the survivors).
    dead: Vec<AtomicBool>,
    /// First PE killed during this run, if any.
    crashed: Mutex<Option<Pe>>,
}

const POISONED: &str = "a thread panicked holding an inbox lock";

/// What a worker hands back at the join: its measurements, the messages
/// the fault plan made it lose, and what was left in its heap.
type WorkerEnd = (Meter, Vec<Letter>, Vec<Letter>);

impl Sched {
    /// Move `batch` into PE `dest`'s inbox, waking its worker if it sleeps.
    fn post(&self, dest: Pe, batch: &mut Vec<Arrival>) {
        self.in_flight.fetch_add(batch.len() as u64, AtOrd::SeqCst);
        let mailbox = &self.mailboxes[dest];
        let mut inbox = mailbox.inbox.lock().expect(POISONED);
        inbox.letters.append(batch);
        mailbox.waiting.store(inbox.letters.len(), AtOrd::Relaxed);
        let asleep = inbox.asleep;
        drop(inbox);
        if asleep {
            mailbox.available.notify_one();
        }
    }

    /// Retire the message a handler just ran: its `local` sends to its own
    /// PE (not yet counted) take its place in the in-flight count.
    fn settle(&self, local: u64, stop: bool) {
        let quiescent = match local {
            0 => self.in_flight.fetch_sub(1, AtOrd::SeqCst) == 1,
            1 => false,
            n => {
                self.in_flight.fetch_add(n - 1, AtOrd::SeqCst);
                false
            }
        };
        if quiescent || stop {
            self.shutdown();
        }
    }

    fn shutdown(&self) {
        self.done.store(true, AtOrd::SeqCst);
        for mailbox in &self.mailboxes {
            // Take the lock so a worker between its `done` check and its
            // wait cannot miss the wakeup.
            let _guard = mailbox.inbox.lock().expect(POISONED);
            mailbox.available.notify_all();
        }
        // The same for the watchdog.
        let _guard = self.watch.lock().unwrap();
        self.ended.notify_all();
    }

    /// Move PE `pe`'s inbox into its heap, parking first while both are
    /// empty. False when the worker must exit: the run is over or its PE
    /// was killed.
    fn refill(&self, pe: Pe, own: &mut Local) -> bool {
        let mailbox = &self.mailboxes[pe];
        let mut inbox = mailbox.inbox.lock().expect(POISONED);
        loop {
            if self.done.load(AtOrd::SeqCst) || self.dead[pe].load(AtOrd::SeqCst) {
                return false;
            }
            if !inbox.letters.is_empty() {
                let arrivals = std::mem::take(&mut inbox.letters);
                mailbox.waiting.store(0, AtOrd::Relaxed);
                drop(inbox);
                for a in arrivals {
                    own.push(&self.policy, a);
                }
                return true;
            }
            if !own.heap.is_empty() {
                return true;
            }
            // Publish progress before counting idle: the watchdog reads
            // `idle` first, so it cannot see this worker idle with a stale
            // count.
            mailbox.executed.store(own.executed, AtOrd::SeqCst);
            inbox.asleep = true;
            self.idle.fetch_add(1, AtOrd::SeqCst);
            inbox = mailbox.available.wait(inbox).expect(POISONED);
            self.idle.fetch_sub(1, AtOrd::SeqCst);
            inbox.asleep = false;
        }
    }

    /// Handlers run so far, as far as the workers have published.
    fn progress(&self) -> u64 {
        self.mailboxes.iter().map(|m| m.executed.load(AtOrd::SeqCst)).sum()
    }
}

/// Real-threads [`Runtime`] backend. See the module docs.
///
/// ```
/// use charmrt::{Chare, Ctx, EntryId, Payload, Runtime, ThreadRuntime, PRIO_NORMAL};
///
/// struct Echo;
/// impl Chare for Echo {
///     fn receive(&mut self, _e: EntryId, _p: Payload, _ctx: &mut Ctx) {}
/// }
///
/// let mut rt = ThreadRuntime::new(2);
/// let e = rt.register_entry("echo");
/// let o = rt.register(Box::new(Echo), 1, true);
/// rt.inject(o, e, 0, PRIO_NORMAL, Vec::new());
/// rt.run();
/// assert_eq!(rt.stats().entry_count[e.idx()], 1);
/// ```
pub struct ThreadRuntime {
    core: RuntimeCore,
    /// Bootstrap messages queued by `inject` until the next run.
    injected: Vec<Letter>,
    /// Messages queued for a repair re-run (redelivered dead letters and
    /// messages still queued when a stall ended the previous run). Unlike
    /// `injected` these are *not* new entries into the system, so draining
    /// them does not bump `msgs_injected`.
    requeued: Vec<Letter>,
    /// No-progress window after which a non-quiescent run is declared
    /// stalled.
    stall_timeout: Duration,
}

impl ThreadRuntime {
    /// Create a runtime with `n_pes` worker threads.
    pub fn new(n_pes: usize) -> Self {
        ThreadRuntime {
            core: RuntimeCore::new(n_pes),
            injected: Vec::new(),
            requeued: Vec::new(),
            stall_timeout: Duration::from_millis(500),
        }
    }

    /// Shrink the no-progress watchdog window (tests; default 500 ms).
    pub fn set_stall_timeout(&mut self, timeout: Duration) {
        self.stall_timeout = timeout;
    }

    /// One PE's scheduler: pop, execute, route the sends. Returns what it
    /// measured, the messages the fault plan made it lose and what was
    /// still queued when it exited.
    fn worker_loop(
        sched: &Sched,
        pe: Pe,
        objects: &mut [Option<Box<dyn Chare>>],
        mut meter: Meter,
    ) -> WorkerEnd {
        let mut dead_letters = Vec::new();
        let mut own = Local::default();
        own.outbox.resize_with(sched.mailboxes.len(), Vec::new);
        let mailbox = &sched.mailboxes[pe];
        loop {
            let ready = !sched.done.load(AtOrd::SeqCst) && !sched.dead[pe].load(AtOrd::SeqCst);
            let must_drain = own.heap.is_empty() || mailbox.waiting.load(AtOrd::Relaxed) > 0;
            if !ready || (must_drain && !sched.refill(pe, &mut own)) {
                break;
            }
            let queued = own.heap.pop().expect("refill leaves the heap non-empty");
            if meter.rejects(&queued) {
                sched.settle(0, false);
                continue;
            }

            let obj = objects[queued.msg.to.idx()]
                .as_deref_mut()
                .expect("message routed to a worker that does not own the object");
            let (mut ctx, end_path) =
                meter.run_handler(&sched.clock, pe, sched.mailboxes.len(), obj, queued.msg);
            own.executed += 1;

            let mut local = 0u64;
            let mut route = |dest: Pe, a: Arrival| {
                if dest == pe {
                    own.push(&sched.policy, a);
                    local += 1;
                } else {
                    own.outbox[dest].push(a);
                }
            };
            for s in ctx.sends.drain(..) {
                meter.sent(&s);
                let dest = sched.obj_pe[s.to.idx()];
                let action = sched
                    .fault
                    .as_ref()
                    .and_then(|f| f.lock().unwrap().decide(s.entry, pe, dest));
                let fate = apply_fault(
                    action,
                    Letter::from_send(s, end_path),
                    sched.stamp_crc,
                    &mut meter.stats,
                    &mut dead_letters,
                );
                match fate {
                    Fate::Lost { killed } => {
                        // A faithful lost packet: the quiescence counter
                        // sees the send but no receive will ever match it,
                        // so quiescence is provably unreachable and the
                        // watchdog (not quiescence) ends the run.
                        sched.in_flight.fetch_add(1, AtOrd::SeqCst);
                        if killed && !sched.dead[dest].swap(true, AtOrd::SeqCst) {
                            meter.stats.pes_killed += 1;
                            sched.crashed.lock().unwrap().get_or_insert(dest);
                            // Wake the victim so it notices it is dead.
                            let _guard = sched.mailboxes[dest].inbox.lock().expect(POISONED);
                            sched.mailboxes[dest].available.notify_all();
                        }
                    }
                    Fate::Deliver { msg, crc, duplicate, delay } => {
                        if let Some(dup) = duplicate {
                            route(dest, Arrival { msg: dup, crc: None, demoted: false });
                        }
                        route(dest, Arrival { msg, crc, demoted: delay.is_some() });
                    }
                }
            }
            for (dest, batch) in own.outbox.iter_mut().enumerate() {
                if !batch.is_empty() {
                    sched.post(dest, batch);
                }
            }
            sched.settle(local, ctx.stop);
        }
        // A killed worker counts itself permanently idle, so the
        // survivors' no-progress watchdog can still see "everyone idle"
        // and end the run.
        mailbox.executed.store(own.executed, AtOrd::SeqCst);
        if sched.dead[pe].load(AtOrd::SeqCst) {
            sched.idle.fetch_add(1, AtOrd::SeqCst);
        }
        (meter, dead_letters, own.heap.into_iter().map(|q| q.msg).collect())
    }
}

impl Runtime for ThreadRuntime {
    fn core(&self) -> &RuntimeCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut RuntimeCore {
        &mut self.core
    }

    fn inject(
        &mut self,
        to: ObjId,
        entry: EntryId,
        bytes: usize,
        priority: Priority,
        payload: Payload,
    ) {
        self.injected.push(Letter { to, entry, bytes, priority, payload, path: 0.0 });
    }

    /// Run to quiescence (or `Ctx::stop`) on real worker threads. Returns
    /// the makespan: the latest handler end time, in wall seconds from the
    /// run's epoch. A run that can never reach quiescence (a dropped
    /// message leaves the in-flight counter pinned above zero) is detected
    /// by a no-progress watchdog and returned as [`RunStall`] instead of
    /// spinning forever; messages still queued at the stall are preserved
    /// and re-queued for the next run.
    fn try_run(&mut self) -> Result<f64, RunStall> {
        if self.injected.is_empty() && self.requeued.is_empty() {
            return Ok(0.0);
        }
        let core = &mut self.core;
        let n_pes = core.n_pes;
        let sched = Sched {
            mailboxes: (0..n_pes)
                .map(|_| Mailbox {
                    inbox: Mutex::new(Inbox { letters: Vec::new(), asleep: false }),
                    waiting: AtomicUsize::new(0),
                    available: Condvar::new(),
                    executed: AtomicU64::new(0),
                })
                .collect(),
            in_flight: AtomicU64::new(0),
            done: AtomicBool::new(false),
            watch: Mutex::new(()),
            ended: Condvar::new(),
            obj_pe: core.obj_pe.clone(),
            clock: WallClock::start(),
            policy: core.policy,
            stamp_crc: core.stamp_crc(),
            fault: core.fault.take().map(Mutex::new),
            idle: AtomicU64::new(0),
            stalled: AtomicBool::new(false),
            dead: (0..n_pes).map(|_| AtomicBool::new(false)).collect(),
            crashed: Mutex::new(None),
        };
        core.meter.stats.msgs_injected += self.injected.len() as u64;
        let mut bootstrap: Vec<Vec<Arrival>> = (0..n_pes).map(|_| Vec::new()).collect();
        for msg in self.injected.drain(..).chain(self.requeued.drain(..)) {
            bootstrap[sched.obj_pe[msg.to.idx()]].push(Arrival { msg, crc: None, demoted: false });
        }
        for (pe, batch) in bootstrap.iter_mut().enumerate() {
            sched.post(pe, batch);
        }

        // Partition object ownership: each worker gets a dense table with
        // only its own objects present, and an empty meter to fill.
        let n_objects = core.objects.len();
        let mut owned: Vec<Vec<Option<Box<dyn Chare>>>> =
            (0..n_pes).map(|_| (0..n_objects).map(|_| None).collect()).collect();
        for (idx, slot) in core.objects.iter_mut().enumerate() {
            if let Some(obj) = slot.take() {
                owned[core.obj_pe[idx]][idx] = Some(obj);
            }
        }

        let stall_timeout = self.stall_timeout;
        let results: Vec<WorkerEnd> = std::thread::scope(|scope| {
            let handles: Vec<_> = owned
                .iter_mut()
                .enumerate()
                .map(|(pe, objs)| {
                    let (sched, meter) = (&sched, core.meter.fresh());
                    scope.spawn(move || Self::worker_loop(sched, pe, objs, meter))
                })
                .collect();

            // No-progress watchdog, run on the calling thread: quiescence
            // can never be reached if every worker sits idle while the
            // in-flight counter stays pinned above zero (a lost message, a
            // killed PE, or a wakeup that never came). "No progress" = the
            // executed count has not moved for the whole stall window —
            // transient all-idle moments between a notify and a wakeup
            // don't trip it. The checks tick every 5 ms; quiescence ends
            // the wait at once.
            let mut last_exec = sched.progress();
            let mut last_change = Instant::now();
            loop {
                let watch = sched.watch.lock().unwrap();
                if sched.done.load(AtOrd::SeqCst) {
                    break;
                }
                drop(sched.ended.wait_timeout(watch, Duration::from_millis(5)).unwrap());
                if sched.done.load(AtOrd::SeqCst) {
                    break;
                }
                // `idle` before the count: a worker publishes its count
                // before it counts itself idle.
                let all_idle = sched.idle.load(AtOrd::SeqCst) as usize == n_pes;
                let exec = sched.progress();
                if exec != last_exec {
                    last_exec = exec;
                    last_change = Instant::now();
                    continue;
                }
                // A kill makes quiescence unreachable by construction, so
                // don't make the recovery path wait out the full window.
                let window = if sched.crashed.lock().unwrap().is_some() {
                    stall_timeout.min(Duration::from_millis(50))
                } else {
                    stall_timeout
                };
                if all_idle
                    && sched.in_flight.load(AtOrd::SeqCst) > 0
                    && last_change.elapsed() >= window
                {
                    sched.stalled.store(true, AtOrd::SeqCst);
                    sched.shutdown();
                    break;
                }
            }
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });

        // Return object ownership to the runtime.
        for objs in owned.iter_mut() {
            for (idx, slot) in objs.iter_mut().enumerate() {
                if let Some(obj) = slot.take() {
                    core.objects[idx] = Some(obj);
                }
            }
        }

        // Fault state (occurrence counters) and dead letters outlive the
        // run; the workers' measurements fold in, in PE order.
        core.fault = sched.fault.map(|f| f.into_inner().unwrap());
        core.crashed = core.crashed.or(sched.crashed.into_inner().unwrap());
        let mut makespan = 0.0f64;
        let mut leftovers = Vec::new();
        for (meter, dead_letters, left) in results {
            makespan = makespan.max(meter.last_end);
            core.meter.absorb(meter);
            core.dead_letters.extend(dead_letters);
            leftovers.extend(left);
        }
        for mailbox in sched.mailboxes {
            let inbox = mailbox.inbox.into_inner().expect(POISONED);
            leftovers.extend(inbox.letters.into_iter().map(|a| a.msg));
        }
        let undelivered = leftovers.len();
        if !sched.stalled.load(AtOrd::SeqCst) {
            // `Ctx::stop` discards whatever was still queued.
            core.meter.stats.msgs_discarded += undelivered as u64;
            return Ok(makespan);
        }
        // Preserve for the repair re-run (no counter: the send was already
        // counted; the receive is still to come).
        self.requeued.extend(leftovers);
        Err(RunStall {
            makespan,
            in_flight: sched.in_flight.load(AtOrd::SeqCst),
            undelivered: undelivered + core.dead_letters.len(),
        })
    }

    /// Redeliveries take the bootstrap path of the next run, so they bypass
    /// the fault plan entirely.
    fn redeliver_dead_letters(&mut self) -> usize {
        let n = self.core.dead_letters.len();
        self.requeued.append(&mut self.core.dead_letters);
        self.core.meter.stats.msgs_redelivered += n as u64;
        n
    }

    fn set_pe_speeds(&mut self, _speeds: Vec<f64>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{PRIO_HIGH, PRIO_NORMAL};
    use crate::{Ctx, FaultPlan};
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    /// Counts hits; forwards `hops` more times along `next`.
    struct Hopper {
        next: Option<ObjId>,
        entry: EntryId,
        hops: u32,
        hits: Arc<AtomicU32>,
    }

    impl Chare for Hopper {
        fn receive(&mut self, _e: EntryId, _p: Payload, ctx: &mut Ctx) {
            self.hits.fetch_add(1, AtOrd::SeqCst);
            if self.hops > 0 {
                self.hops -= 1;
                if let Some(next) = self.next {
                    ctx.signal(next, self.entry, PRIO_NORMAL);
                }
            }
        }
    }

    #[test]
    fn ring_message_hops_to_completion() {
        let mut rt = ThreadRuntime::new(3);
        let e = rt.register_entry("hop");
        let hits = Arc::new(AtomicU32::new(0));
        let n = 3;
        // Ids are dense and sequential: node i forwards to (i + 1) % n.
        let ids: Vec<ObjId> = (0..n)
            .map(|i| {
                rt.register(
                    Box::new(Hopper {
                        next: Some(ObjId(((i + 1) % n) as u32)),
                        entry: e,
                        hops: 5,
                        hits: hits.clone(),
                    }),
                    i % 3,
                    true,
                )
            })
            .collect();
        assert_eq!(ids[1], ObjId(1));
        rt.inject(ids[0], e, 0, PRIO_NORMAL, Vec::new());
        let t = rt.run();
        // Bootstrap + each node forwards until its own hop budget drains:
        // 1 + 3 × 5 executions in a 3-ring.
        assert_eq!(hits.load(AtOrd::SeqCst), 16);
        assert_eq!(rt.stats().entry_count[e.idx()], 16);
        assert!(t > 0.0);
    }

    /// Root fans out to all leaves; each leaf reports back; root counts.
    struct FanRoot {
        leaves: Vec<ObjId>,
        fan: EntryId,
        acks: u32,
    }

    impl Chare for FanRoot {
        fn receive(&mut self, entry: EntryId, _p: Payload, ctx: &mut Ctx) {
            if entry == self.fan {
                let leaves = self.leaves.clone();
                for leaf in leaves {
                    ctx.signal(leaf, self.fan, PRIO_NORMAL);
                }
            } else {
                self.acks += 1;
            }
        }
    }

    struct FanLeaf {
        root: ObjId,
        ack: EntryId,
    }

    impl Chare for FanLeaf {
        fn receive(&mut self, _e: EntryId, _p: Payload, ctx: &mut Ctx) {
            ctx.signal(self.root, self.ack, PRIO_HIGH);
        }
    }

    #[test]
    fn fan_out_fan_in_reaches_quiescence_with_exact_counts() {
        let mut rt = ThreadRuntime::new(4);
        let fan = rt.register_entry("fan");
        let ack = rt.register_entry("ack");
        let n_leaves = 24u32;
        let root = ObjId(0);
        let leaves: Vec<ObjId> = (1..=n_leaves).map(ObjId).collect();
        rt.register(Box::new(FanRoot { leaves: leaves.clone(), fan, acks: 0 }), 0, false);
        for (i, _) in leaves.iter().enumerate() {
            rt.register(Box::new(FanLeaf { root, ack }), i % 4, true);
        }
        rt.inject(root, fan, 0, PRIO_NORMAL, Vec::new());
        rt.run();
        assert_eq!(rt.stats().entry_count[fan.idx()], 1 + n_leaves as u64);
        assert_eq!(rt.stats().entry_count[ack.idx()], n_leaves as u64);
        // Leaf loads were measured and attributed per object; the fixed
        // root landed in PE 0's background load.
        let snap = rt.ldb().snapshot(rt.placement());
        assert!(snap.objects.iter().skip(1).all(|o| o.load > 0.0));
        assert!(snap.background[0] > 0.0);
    }

    #[test]
    fn empty_runtime_terminates() {
        let mut rt = ThreadRuntime::new(2);
        rt.register_entry("never");
        assert_eq!(rt.run(), 0.0);
    }

    #[test]
    fn heavy_cross_worker_traffic_loses_no_messages() {
        let mut rt = ThreadRuntime::new(4);
        let e = rt.register_entry("bounce");
        let hits = Arc::new(AtomicU32::new(0));
        let n = 16usize;
        for i in 0..n {
            rt.register(
                Box::new(Hopper {
                    next: Some(ObjId(((i + 7) % n) as u32)),
                    entry: e,
                    hops: 40,
                    hits: hits.clone(),
                }),
                i % 4,
                true,
            );
        }
        for i in 0..n {
            rt.inject(ObjId(i as u32), e, 64, PRIO_NORMAL, Vec::new());
        }
        rt.run();
        // n bootstraps + n × 40 forwards.
        assert_eq!(hits.load(AtOrd::SeqCst), (n + n * 40) as u32);
    }

    #[test]
    fn migration_moves_objects_between_runs() {
        let mut rt = ThreadRuntime::new(2);
        let e = rt.register_entry("m");
        let hits = Arc::new(AtomicU32::new(0));
        let o = rt.register(
            Box::new(Hopper { next: None, entry: e, hops: 0, hits: hits.clone() }),
            0,
            true,
        );
        rt.inject(o, e, 0, PRIO_NORMAL, Vec::new());
        rt.run();
        let busy0 = rt.stats().pe_busy[0];
        assert!(busy0 > 0.0);

        rt.migrate(o, 1);
        rt.inject(o, e, 0, PRIO_NORMAL, Vec::new());
        rt.run();
        assert!(rt.stats().pe_busy[1] > 0.0, "work should land on worker 1 after migration");
        assert_eq!(hits.load(AtOrd::SeqCst), 2);
    }

    #[test]
    fn watchdog_reports_stall_instead_of_hanging() {
        let mut rt = ThreadRuntime::new(2);
        rt.set_stall_timeout(Duration::from_millis(100));
        let e = rt.register_entry("hop");
        let hits = Arc::new(AtomicU32::new(0));
        let a = rt.register(
            Box::new(Hopper { next: Some(ObjId(1)), entry: e, hops: 1, hits: hits.clone() }),
            0,
            true,
        );
        rt.register(
            Box::new(Hopper { next: None, entry: e, hops: 0, hits: hits.clone() }),
            1,
            true,
        );
        // Drop the one message a sends to b: quiescence is unreachable.
        rt.set_fault_plan(FaultPlan::parse("drop:entry=hop").unwrap());
        rt.inject(a, e, 0, PRIO_NORMAL, Vec::new());
        let stall = rt.try_run().expect_err("a dropped message must stall, not hang");
        assert_eq!(stall.in_flight, 1);
        assert_eq!(stall.undelivered, 1);
        assert_eq!(hits.load(AtOrd::SeqCst), 1, "only the sender ran");
        // The sender retransmits; the repair run completes normally.
        assert_eq!(rt.redeliver_dead_letters(), 1);
        rt.try_run().expect("redelivered run must reach quiescence");
        assert_eq!(hits.load(AtOrd::SeqCst), 2);
        assert_eq!(rt.stats().msgs_dropped, 1);
        assert_eq!(rt.stats().msgs_redelivered, 1);
        assert_eq!(rt.stats().conservation_residual(), 0);
    }

    #[test]
    fn kill_fault_fells_the_destination_worker() {
        let mut rt = ThreadRuntime::new(2);
        rt.set_stall_timeout(Duration::from_millis(200));
        let e = rt.register_entry("hop");
        let hits = Arc::new(AtomicU32::new(0));
        let a = rt.register(
            Box::new(Hopper { next: Some(ObjId(1)), entry: e, hops: 1, hits: hits.clone() }),
            0,
            true,
        );
        rt.register(
            Box::new(Hopper { next: None, entry: e, hops: 0, hits: hits.clone() }),
            1,
            true,
        );
        // The first message into PE 1 kills it; the message is lost with it.
        rt.set_fault_plan(FaultPlan::parse("kill:entry=hop:dst=1").unwrap());
        rt.inject(a, e, 0, PRIO_NORMAL, Vec::new());
        let stall = rt.try_run().expect_err("a killed PE must stall the run, not hang");
        assert!(stall.in_flight >= 1);
        assert_eq!(hits.load(AtOrd::SeqCst), 1, "only the sender ran");
        assert_eq!(rt.crashed(), Some(1));
        assert_eq!(rt.stats().pes_killed, 1);
        assert_eq!(rt.stats().msgs_dropped, 1);
        // Nothing to retransmit: the loss is the PE, not the network.
        assert_eq!(rt.redeliver_dead_letters(), 0);
        assert_eq!(rt.stats().conservation_residual(), 0);
    }

    #[test]
    fn shuffled_schedule_still_reaches_quiescence_with_exact_counts() {
        let mut rt = ThreadRuntime::new(4);
        rt.set_schedule_policy(crate::SchedulePolicy::random_shuffle(99));
        let e = rt.register_entry("bounce");
        let hits = Arc::new(AtomicU32::new(0));
        let n = 8usize;
        for i in 0..n {
            rt.register(
                Box::new(Hopper {
                    next: Some(ObjId(((i + 3) % n) as u32)),
                    entry: e,
                    hops: 10,
                    hits: hits.clone(),
                }),
                i % 4,
                true,
            );
        }
        for i in 0..n {
            rt.inject(ObjId(i as u32), e, 0, PRIO_NORMAL, Vec::new());
        }
        rt.run();
        assert_eq!(hits.load(AtOrd::SeqCst), (n + n * 10) as u32);
        assert_eq!(rt.stats().conservation_residual(), 0);
    }

    #[test]
    fn stop_halts_remaining_work() {
        /// Sends one message to `next` on its own PE, then stops the run.
        struct Stopper {
            next: ObjId,
            entry: EntryId,
        }
        impl Chare for Stopper {
            fn receive(&mut self, _e: EntryId, _p: Payload, ctx: &mut Ctx) {
                ctx.signal(self.next, self.entry, PRIO_NORMAL);
                ctx.stop();
            }
        }
        let mut rt = ThreadRuntime::new(1);
        let e = rt.register_entry("s");
        let o = rt.register(Box::new(Stopper { next: ObjId(1), entry: e }), 0, true);
        // Single worker: the high-priority stopper runs first; the lower
        // priority message and the stopper's own send, both left in the
        // worker's heap, are discarded at shutdown.
        let hits = Arc::new(AtomicU32::new(0));
        let n = rt.register(
            Box::new(Hopper { next: None, entry: e, hops: 0, hits: hits.clone() }),
            0,
            true,
        );
        rt.inject(o, e, 0, PRIO_HIGH, Vec::new());
        rt.inject(n, e, 0, crate::msg::PRIO_LOW, Vec::new());
        rt.run();
        assert_eq!(rt.stats().entry_count[e.idx()], 1);
        assert_eq!(hits.load(AtOrd::SeqCst), 0);
        assert_eq!(rt.stats().msgs_discarded, 2);
        assert_eq!(rt.stats().conservation_residual(), 0);
    }

    /// Bounces a ball to `peer` until its hop budget drains, and every 64th
    /// hop also throws a burst of grains at it.
    struct Volley {
        peer: ObjId,
        ball: EntryId,
        grain: EntryId,
        hops: u32,
        balls: Arc<AtomicU32>,
        grains: Arc<AtomicU32>,
    }

    const BURST: u32 = 32;

    impl Chare for Volley {
        fn receive(&mut self, entry: EntryId, _p: Payload, ctx: &mut Ctx) {
            if entry == self.grain {
                self.grains.fetch_add(1, AtOrd::SeqCst);
                return;
            }
            self.balls.fetch_add(1, AtOrd::SeqCst);
            if self.hops > 0 {
                self.hops -= 1;
                if self.hops.is_multiple_of(64) {
                    for _ in 0..BURST {
                        ctx.send(self.peer, self.grain, 8, PRIO_NORMAL, vec![0; 8]);
                    }
                }
                ctx.signal(self.peer, self.ball, PRIO_NORMAL);
            }
        }
    }

    #[test]
    fn cross_pe_volleys_with_parked_workers_lose_nothing() {
        // One ball between two PEs: after every hop the sender's heap is
        // empty, so it parks and the next hop must wake it. The bursts
        // land while the receiver is awake and busy.
        let hops = 1500u32;
        let bursts_per_side = (0..hops).filter(|h| h.is_multiple_of(64)).count() as u32;
        let mut rt = ThreadRuntime::new(2);
        rt.set_stall_timeout(Duration::from_secs(5));
        let ball = rt.register_entry("ball");
        let grain = rt.register_entry("grain");
        for round in 1..=3u32 {
            let (balls, grains) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
            let first = ObjId(2 * (round - 1));
            for side in 0..2u32 {
                rt.register(
                    Box::new(Volley {
                        peer: ObjId(first.0 + 1 - side),
                        ball,
                        grain,
                        hops,
                        balls: balls.clone(),
                        grains: grains.clone(),
                    }),
                    side as Pe,
                    true,
                );
            }
            rt.inject(first, ball, 0, PRIO_NORMAL, Vec::new());
            rt.try_run().expect("a volley must reach quiescence");
            assert_eq!(balls.load(AtOrd::SeqCst), 1 + 2 * hops);
            assert_eq!(grains.load(AtOrd::SeqCst), 2 * bursts_per_side * BURST);
            let s = rt.stats();
            assert_eq!(s.entry_count[ball.idx()], (round * (1 + 2 * hops)) as u64);
            assert_eq!(s.entry_count[grain.idx()], (round * 2 * bursts_per_side * BURST) as u64);
            assert_eq!(s.msgs_discarded, 0);
            assert_eq!(s.conservation_residual(), 0);
        }
    }

    #[test]
    fn a_killed_pe_returns_the_self_sends_its_last_handler_queued() {
        /// Queues `n` messages for `sib` on its own PE, then sends the
        /// message that kills that PE.
        struct Doomed {
            sib: ObjId,
            own: EntryId,
            doom: EntryId,
            n: usize,
        }
        impl Chare for Doomed {
            fn receive(&mut self, _e: EntryId, _p: Payload, ctx: &mut Ctx) {
                for _ in 0..self.n {
                    ctx.signal(self.sib, self.own, PRIO_NORMAL);
                }
                ctx.signal(self.sib, self.doom, PRIO_NORMAL);
            }
        }
        let mut rt = ThreadRuntime::new(2);
        rt.set_stall_timeout(Duration::from_millis(200));
        let own = rt.register_entry("own");
        let doom = rt.register_entry("doom");
        let hits = Arc::new(AtomicU32::new(0));
        let victim = rt.register(Box::new(Doomed { sib: ObjId(1), own, doom, n: 3 }), 1, true);
        rt.register(
            Box::new(Hopper { next: None, entry: own, hops: 0, hits: hits.clone() }),
            1,
            true,
        );
        rt.set_fault_plan(FaultPlan::parse("kill:entry=doom:dst=1").unwrap());
        rt.inject(victim, own, 0, PRIO_NORMAL, Vec::new());
        let stall = rt.try_run().expect_err("a killed PE must stall the run, not hang");
        assert_eq!(rt.crashed(), Some(1));
        assert_eq!(hits.load(AtOrd::SeqCst), 0, "the victim never ran its self-sends");
        // The three self-sends were left in the victim's heap; the killing
        // message died with the PE.
        assert_eq!(stall.undelivered, 3);
        assert_eq!(stall.in_flight, 4);
        assert_eq!(rt.stats().msgs_discarded, 0);
    }
}
