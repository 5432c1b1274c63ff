//! The discrete-event execution engine: data-driven objects on `P` virtual
//! processors, each with a prioritized scheduler queue, costed by a
//! [`machine::MachineModel`].
//!
//! The engine reproduces the Converse/Charm++ execution model of §2.2:
//! messages are delivered to per-PE prioritized queues; an idle PE's
//! scheduler repeatedly picks the best available message and invokes the
//! indicated entry method on the indicated object. Handler CPU time is
//! `recv_overhead + task_time(declared work) + send costs`, and every
//! execution is attributed to the summary profile, the optional full trace,
//! and the load-balancing database.
//!
//! What this file owns is what the substrate decides: the virtual clock,
//! the event queue and the machine-model costing. The queue entry, the
//! accounting and the fault semantics are the crate-private `pe` module's;
//! the object table and every bookkeeping method are [`RuntimeCore`]'s.
//!
//! Determinism: event ordering is (time, sequence number); all queues break
//! ties by insertion order, so a run is a pure function of its inputs.

use crate::chare::{Ctx, PackCost};
use crate::msg::{EntryId, ObjId, Payload, Pe, Priority};
use crate::pe::{apply_fault, Fate, Letter, Queued};
use crate::runtime::{RunStall, Runtime, RuntimeCore};
use machine::MachineModel;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A future event in virtual time.
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

enum EventKind {
    /// A message reaches a PE's queue.
    Deliver { pe: Pe, msg: Queued },
    /// A PE's scheduler wakes up to run the next queued message.
    Execute { pe: Pe },
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Min-heap by (time, seq) through inversion.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .partial_cmp(&self.time)
            .expect("NaN event time")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct PeState {
    /// Virtual time until which the PE is executing a handler.
    busy_until: f64,
    /// Prioritized scheduler queue.
    queue: BinaryHeap<Queued>,
    /// Whether an Execute event is already pending for this PE.
    execute_scheduled: bool,
    /// Felled by a kill fault: a dead machine whose deliveries are
    /// discarded and whose scheduler never wakes again.
    dead: bool,
}

/// The engine. See the module docs for the execution model.
///
/// ```
/// use charmrt::{Chare, Ctx, Des, EntryId, Payload, Runtime, PRIO_NORMAL};
///
/// // A chare that does 1000 work units when poked.
/// struct Worker;
/// impl Chare for Worker {
///     fn receive(&mut self, _e: EntryId, _p: Payload, ctx: &mut Ctx) {
///         ctx.add_work(1000.0);
///     }
/// }
///
/// let mut des = Des::new(4, machine::presets::asci_red());
/// let poke = des.register_entry("poke");
/// let w = des.register(Box::new(Worker), 2, true);
/// des.inject(w, poke, 0, PRIO_NORMAL, Vec::new());
/// let makespan = des.run();
/// assert!(makespan > 0.0);
/// assert_eq!(des.stats().entry_count[poke.idx()], 1);
/// ```
pub struct Des {
    core: RuntimeCore,
    machine: MachineModel,
    now: f64,
    seq: u64,
    events: BinaryHeap<Event>,
    pes: Vec<PeState>,
    stopped: bool,
    /// Per-PE speed factor (1.0 = nominal). Models heterogeneous or
    /// externally-loaded processors (workstation clusters, ref [3] of the
    /// paper): all CPU time on PE p is divided by `pe_speed[p]`.
    pe_speed: Vec<f64>,
}

impl Des {
    /// Create an engine with `n_pes` virtual processors costed by `machine`.
    pub fn new(n_pes: usize, machine: MachineModel) -> Self {
        Des {
            core: RuntimeCore::new(n_pes),
            machine,
            now: 0.0,
            seq: 0,
            events: BinaryHeap::new(),
            pes: (0..n_pes)
                .map(|_| PeState {
                    busy_until: 0.0,
                    queue: BinaryHeap::new(),
                    execute_scheduled: false,
                    dead: false,
                })
                .collect(),
            stopped: false,
            pe_speed: vec![1.0; n_pes],
        }
    }

    /// Current virtual time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The machine model in use.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push_event(&mut self, time: f64, kind: EventKind) {
        let seq = self.next_seq();
        self.events.push(Event { time, seq, kind });
    }

    /// Queue `msg` for its destination's PE at virtual time `at` — plus the
    /// schedule policy's seeded latency jitter when it crosses over from
    /// another PE, `from`.
    fn deliver(&mut self, mut at: f64, from: Option<Pe>, msg: Letter, crc: Option<u64>) {
        let pe = self.core.obj_pe[msg.to.idx()];
        let seq = self.next_seq();
        if from.is_some_and(|src| src != pe) {
            at += self.core.policy.delivery_jitter(seq);
        }
        let msg = Queued::new(&self.core.policy, seq, msg, crc);
        self.push_event(at, EventKind::Deliver { pe, msg });
    }

    fn on_deliver(&mut self, pe: Pe, msg: Queued) {
        let st = &mut self.pes[pe];
        if st.dead {
            // Addressed to a dead machine: the message is gone, but the
            // conservation ledger must see it leave the system.
            self.core.meter.stats.msgs_discarded += 1;
            return;
        }
        st.queue.push(msg);
        self.reschedule(pe);
    }

    fn on_execute(&mut self, pe: Pe) {
        let st = &mut self.pes[pe];
        if st.dead {
            return;
        }
        st.execute_scheduled = false;
        let Some(q) = st.queue.pop() else { return };
        let start = self.now;

        // The object may have migrated since delivery: forward the message.
        let home = self.core.obj_pe[q.msg.to.idx()];
        if home != pe {
            let t = start + self.machine.wire_time(q.msg.bytes);
            self.push_event(t, EventKind::Deliver { pe: home, msg: q });
            self.reschedule(pe);
            return;
        }
        if self.core.meter.rejects(&q) {
            self.reschedule(pe);
            return;
        }

        // Run the handler.
        let Letter { to, entry, payload, path, .. } = q.msg;
        let mut obj = self.core.objects[to.idx()].take().expect("re-entrant object execution");
        let mut ctx = Ctx::new(pe, start, to, self.core.n_pes);
        obj.receive(entry, payload, &mut ctx);
        self.core.objects[to.idx()] = Some(obj);

        // Cost the execution: receive overhead + declared work + send costs.
        let mut send_cpu = 0.0;
        let mut pack_cpu = 0.0;
        for s in &ctx.sends {
            let (pack, send) = match s.pack {
                PackCost::Single => (self.machine.pack_overhead_s, self.machine.send_time(s.bytes)),
                PackCost::McFirst => {
                    (self.machine.pack_overhead_s, self.machine.send_time(s.bytes))
                }
                // Buffer reuse: only the fixed per-message overhead remains.
                PackCost::McRest => (0.0, self.machine.send_overhead_s),
            };
            pack_cpu += pack;
            send_cpu += send;
        }
        let mut cpu = self.machine.recv_time() + self.machine.task_time(ctx.work);
        cpu += send_cpu + pack_cpu;
        cpu /= self.pe_speed[pe];
        let stats = &mut self.core.meter.stats;
        stats.recv_overhead += self.machine.recv_time();
        stats.send_overhead += send_cpu;
        stats.pack_time += pack_cpu;
        stats.pe_overhead[pe] +=
            (self.machine.recv_time() + send_cpu + pack_cpu) / self.pe_speed[pe];

        // The DES time axis is purely virtual; there is no meaningful wall
        // clock to stamp on the trace.
        let end = start + cpu;
        let end_path = self.core.meter.executed(pe, to, entry, start, cpu, 0.0, path);
        self.pes[pe].busy_until = end;

        // Dispatch the sends: they leave the sender when the handler ends.
        let stamp_crc = self.core.stamp_crc();
        for s in ctx.sends.drain(..) {
            self.core.meter.sent(&s);
            let dest_pe = self.core.obj_pe[s.to.idx()];
            let mut arrive =
                if dest_pe == pe { end } else { end + self.machine.wire_time(s.bytes) };
            let action = self.core.fault.as_mut().and_then(|f| f.decide(s.entry, pe, dest_pe));
            let fate = apply_fault(
                action,
                Letter::from_send(s, end_path),
                stamp_crc,
                &mut self.core.meter.stats,
                &mut self.core.dead_letters,
            );
            match fate {
                Fate::Lost { killed } => {
                    // A killed machine dies at delivery time, and everything
                    // already queued there dies with it.
                    let victim = &mut self.pes[dest_pe];
                    if killed && !victim.dead {
                        victim.dead = true;
                        victim.execute_scheduled = false;
                        let stats = &mut self.core.meter.stats;
                        stats.pes_killed += 1;
                        stats.msgs_discarded += victim.queue.len() as u64;
                        victim.queue.clear();
                        self.core.crashed.get_or_insert(dest_pe);
                    }
                }
                Fate::Deliver { msg, crc, duplicate, delay } => {
                    if let Some(dup) = duplicate {
                        self.deliver(arrive, None, dup, None);
                    }
                    if let Some(d) = delay {
                        arrive += d;
                    }
                    self.deliver(arrive, Some(pe), msg, crc);
                }
            }
        }

        if ctx.stop {
            self.stopped = true;
        }
        // Wake the scheduler for the next queued message.
        self.reschedule(pe);
    }

    /// Schedule an Execute for `pe` if it has queued work and none pending.
    fn reschedule(&mut self, pe: Pe) {
        let st = &mut self.pes[pe];
        if !st.queue.is_empty() && !st.execute_scheduled {
            st.execute_scheduled = true;
            let t = st.busy_until.max(self.now);
            self.push_event(t, EventKind::Execute { pe });
        }
    }
}

impl Runtime for Des {
    fn core(&self) -> &RuntimeCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut RuntimeCore {
        &mut self.core
    }

    /// Delivered at the current virtual time with no communication cost.
    fn inject(
        &mut self,
        to: ObjId,
        entry: EntryId,
        bytes: usize,
        priority: Priority,
        payload: Payload,
    ) {
        self.core.meter.stats.msgs_injected += 1;
        let boot = Letter { to, entry, bytes, priority, payload, path: 0.0 };
        self.deliver(self.now, None, boot, None);
    }

    /// Run until the event queue drains or a handler calls [`Ctx::stop`].
    /// Returns the final virtual time (when the last handler finished);
    /// never stalls.
    fn try_run(&mut self) -> Result<f64, RunStall> {
        self.stopped = false;
        while let Some(ev) = self.events.pop() {
            debug_assert!(ev.time >= self.now - 1e-12, "time went backwards");
            self.now = ev.time.max(self.now);
            match ev.kind {
                EventKind::Deliver { pe, msg } => self.on_deliver(pe, msg),
                EventKind::Execute { pe } => self.on_execute(pe),
            }
            if self.stopped {
                break;
            }
        }
        if self.stopped {
            // `Ctx::stop` discards whatever is still queued or in flight;
            // count the discards so the message-conservation ledger stays
            // exact (residual 0) even when stop races pending deliveries.
            let stats = &mut self.core.meter.stats;
            for ev in self.events.drain() {
                if matches!(ev.kind, EventKind::Deliver { .. }) {
                    stats.msgs_discarded += 1;
                }
            }
            for st in &mut self.pes {
                stats.msgs_discarded += st.queue.len() as u64;
                st.queue.clear();
                st.execute_scheduled = false;
            }
        }
        self.now = self.now.max(self.core.meter.last_end);
        Ok(self.now)
    }

    /// Redeliveries arrive clean at the current virtual time.
    fn redeliver_dead_letters(&mut self) -> usize {
        let letters = std::mem::take(&mut self.core.dead_letters);
        let n = letters.len();
        for dl in letters {
            self.deliver(self.now, None, dl, None);
        }
        self.core.meter.stats.msgs_redelivered += n as u64;
        n
    }

    /// 0.5 = half speed, e.g. a workstation shared with an interactive
    /// user. All handler CPU time on a PE is divided by its factor, so the
    /// measurement-based load balancer *observes* the slowdown and can
    /// adapt to it.
    fn set_pe_speeds(&mut self, speeds: Vec<f64>) {
        assert_eq!(speeds.len(), self.core.n_pes);
        assert!(speeds.iter().all(|&s| s > 0.0), "speeds must be positive");
        self.pe_speed = speeds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{PRIO_HIGH, PRIO_LOW, PRIO_NORMAL};
    use crate::{Chare, FaultPlan, SchedulePolicy};
    use machine::presets;

    use std::sync::{Arc, Mutex};

    /// An i32 order tag packed as 4 LE bytes — the tests' one wire format.
    fn tag(v: i32) -> Payload {
        v.to_le_bytes().to_vec()
    }

    /// A chare that counts invocations and optionally forwards to a peer
    /// with declared work. Tagged payloads are appended to a shared order
    /// log so tests can observe scheduling order.
    struct Node {
        hits: u32,
        forward: Option<(ObjId, EntryId)>,
        work: f64,
        order: Arc<Mutex<Vec<i32>>>,
    }

    impl Node {
        fn new() -> Self {
            Node { hits: 0, forward: None, work: 0.0, order: Arc::new(Mutex::new(Vec::new())) }
        }
    }

    impl Chare for Node {
        fn receive(&mut self, _entry: EntryId, payload: Payload, ctx: &mut Ctx) {
            self.hits += 1;
            if let Ok(bytes) = <[u8; 4]>::try_from(payload.as_slice()) {
                self.order.lock().unwrap().push(i32::from_le_bytes(bytes));
            }
            ctx.add_work(self.work);
            if let Some((to, e)) = self.forward {
                ctx.signal(to, e, PRIO_NORMAL);
            }
        }
    }

    #[test]
    fn message_chain_executes_in_virtual_time() {
        let mut des = Des::new(2, presets::ideal());
        let ping = des.register_entry("ping");
        let b = des.register(Box::new(Node { work: 100.0, ..Node::new() }), 1, true);
        let a = des.register(
            Box::new(Node { forward: Some((b, ping)), work: 50.0, ..Node::new() }),
            0,
            true,
        );
        des.inject(a, ping, 0, PRIO_NORMAL, Vec::new());
        let t = des.run();
        // a: 50 µs, then b: 100 µs (ideal machine: 1 µs per work unit).
        assert!((t - 150e-6).abs() < 1e-12, "final time {t}");
        assert_eq!(des.stats().entry_count[ping.idx()], 2);
        assert!((des.stats().pe_busy[0] - 50e-6).abs() < 1e-12);
        assert!((des.stats().pe_busy[1] - 100e-6).abs() < 1e-12);
    }

    #[test]
    fn priorities_order_the_queue() {
        // Three messages delivered while the PE is busy; the high-priority
        // one must run first, then normal, then low.
        let mut des = Des::new(1, presets::ideal());
        let e = des.register_entry("tagged");
        let order = Arc::new(Mutex::new(Vec::new()));
        let sink = des.register(
            Box::new(Node { work: 10.0, order: order.clone(), ..Node::new() }),
            0,
            true,
        );
        // All four are delivered (in injection order) before the scheduler
        // first wakes, so execution orders purely by (priority, arrival):
        // high first, then the two normals in arrival order, then low.
        des.inject(sink, e, 0, PRIO_NORMAL, tag(1));
        des.inject(sink, e, 0, PRIO_LOW, tag(3));
        des.inject(sink, e, 0, PRIO_NORMAL, tag(2));
        des.inject(sink, e, 0, PRIO_HIGH, tag(0));
        des.run();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn work_costs_scale_with_machine() {
        for m in [presets::asci_red(), presets::origin2000()] {
            let mut des = Des::new(1, m);
            let e = des.register_entry("w");
            let o = des.register(Box::new(Node { work: 1e6, ..Node::new() }), 0, true);
            des.inject(o, e, 0, PRIO_NORMAL, Vec::new());
            let t = des.run();
            let expect = m.recv_time() + m.task_time(1e6);
            assert!((t - expect).abs() < 1e-12, "{}: {t} vs {expect}", m.name);
        }
    }

    #[test]
    fn cross_pe_messages_pay_wire_time() {
        let m = presets::asci_red();
        let mut des = Des::new(2, m);
        let e = des.register_entry("x");
        let b = des.register(Box::new(Node::new()), 1, true);
        let a =
            des.register(Box::new(Node { forward: Some((b, e)), ..Node::new() }), 0, true);
        des.inject(a, e, 0, PRIO_NORMAL, Vec::new());
        let t = des.run();
        // a's handler: recv + send of 32B; then wire; then b's handler: recv.
        let a_cpu = m.recv_time() + m.pack_overhead_s + m.send_time(32);
        let expect = a_cpu + m.wire_time(32) + m.recv_time();
        assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
    }

    #[test]
    fn migration_moves_future_deliveries() {
        let mut des = Des::new(2, presets::ideal());
        let e = des.register_entry("m");
        let o = des.register(Box::new(Node { work: 5.0, ..Node::new() }), 0, true);
        des.inject(o, e, 0, PRIO_NORMAL, Vec::new());
        des.run();
        assert!(des.stats().pe_busy[0] > 0.0);
        des.migrate(o, 1);
        let before = des.stats().pe_busy[1];
        des.inject(o, e, 0, PRIO_NORMAL, Vec::new());
        des.run();
        assert!(des.stats().pe_busy[1] > before, "work should land on PE 1 after migration");
    }

    #[test]
    fn ldb_attributes_loads() {
        let mut des = Des::new(2, presets::ideal());
        let e = des.register_entry("l");
        let mig = des.register(Box::new(Node { work: 100.0, ..Node::new() }), 0, true);
        let fixed = des.register(Box::new(Node { work: 200.0, ..Node::new() }), 1, false);
        des.inject(mig, e, 0, PRIO_NORMAL, Vec::new());
        des.inject(fixed, e, 0, PRIO_NORMAL, Vec::new());
        des.run();
        let snap = des.ldb().snapshot(des.placement());
        assert!((snap.objects[mig.idx()].load - 100e-6).abs() < 1e-12);
        assert_eq!(snap.objects[fixed.idx()].load, 0.0);
        assert!((snap.background[1] - 200e-6).abs() < 1e-12);
    }

    #[test]
    fn tracing_records_executions() {
        let mut des = Des::new(1, presets::ideal());
        let e = des.register_entry("t");
        let o = des.register(Box::new(Node { work: 50.0, ..Node::new() }), 0, true);
        des.set_tracing(true);
        des.inject(o, e, 0, PRIO_NORMAL, Vec::new());
        des.run();
        assert_eq!(des.trace().events.len(), 1);
        let ev = des.trace().events[0];
        assert_eq!(ev.pe, 0);
        assert!((ev.duration() - 50e-6).abs() < 1e-12);
    }

    #[test]
    fn stop_halts_the_engine() {
        struct Stopper;
        impl Chare for Stopper {
            fn receive(&mut self, _e: EntryId, _p: Payload, ctx: &mut Ctx) {
                ctx.stop();
            }
        }
        let mut des = Des::new(1, presets::ideal());
        let e = des.register_entry("s");
        let o = des.register(Box::new(Stopper), 0, true);
        let n = des.register(Box::new(Node { work: 1e9, ..Node::new() }), 0, true);
        des.inject(o, e, 0, PRIO_HIGH, Vec::new());
        des.inject(n, e, 0, PRIO_LOW, Vec::new());
        des.run();
        // The big task never ran.
        assert_eq!(des.stats().entry_count[e.idx()], 1);
    }

    #[test]
    fn deterministic_repeat_runs() {
        let build = || {
            let mut des = Des::new(4, presets::asci_red());
            let e = des.register_entry("d");
            let mut last = None;
            for pe in 0..4 {
                let node = Node { forward: last.map(|o| (o, e)), work: 33.0, ..Node::new() };
                last = Some(des.register(Box::new(node), pe, true));
            }
            des.inject(last.unwrap(), e, 64, PRIO_NORMAL, Vec::new());
            des.run()
        };
        assert_eq!(build().to_bits(), build().to_bits());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn register_rejects_bad_pe() {
        let mut des = Des::new(2, presets::ideal());
        des.register(Box::new(Node::new()), 5, true);
    }

    /// Two nodes where a forwards to b; returns (des, entry, ids).
    fn forward_pair() -> (Des, EntryId, ObjId, ObjId) {
        let mut des = Des::new(2, presets::ideal());
        let e = des.register_entry("ping");
        let b = des.register(Box::new(Node::new()), 1, true);
        let a =
            des.register(Box::new(Node { forward: Some((b, e)), ..Node::new() }), 0, true);
        (des, e, a, b)
    }

    #[test]
    fn dropped_message_dead_letters_then_redelivers() {
        let (mut des, e, a, _b) = forward_pair();
        des.set_fault_plan(FaultPlan::parse("drop:entry=ping").unwrap());
        des.inject(a, e, 0, PRIO_NORMAL, Vec::new());
        des.run();
        // b never ran; the drop is accounted, so conservation still holds.
        assert_eq!(des.stats().entry_count[e.idx()], 1);
        assert_eq!(des.stats().msgs_dropped, 1);
        assert_eq!(des.stats().conservation_residual(), 0);
        // The sender retransmits; the protocol completes.
        assert_eq!(des.redeliver_dead_letters(), 1);
        des.run();
        assert_eq!(des.stats().entry_count[e.idx()], 2);
        assert_eq!(des.stats().msgs_redelivered, 1);
        assert_eq!(des.stats().conservation_residual(), 0);
    }

    #[test]
    fn duplicate_fault_delivers_an_extra_copy() {
        let (mut des, e, a, _b) = forward_pair();
        des.set_fault_plan(FaultPlan::parse("dup:entry=ping").unwrap());
        des.inject(a, e, 0, PRIO_NORMAL, Vec::new());
        des.run();
        // a once, b twice (original + empty-payload copy).
        assert_eq!(des.stats().entry_count[e.idx()], 3);
        assert_eq!(des.stats().msgs_duplicated, 1);
        assert_eq!(des.stats().conservation_residual(), 0);
    }

    #[test]
    fn delay_fault_postpones_delivery_in_virtual_time() {
        let (mut des, e, a, _b) = forward_pair();
        des.set_fault_plan(FaultPlan::parse("delay:secs=1.0:entry=ping").unwrap());
        des.inject(a, e, 0, PRIO_NORMAL, Vec::new());
        let t = des.run();
        assert!(t >= 1.0, "delayed delivery should dominate the makespan, got {t}");
        assert_eq!(des.stats().msgs_delayed, 1);
        assert_eq!(des.stats().entry_count[e.idx()], 2);
    }

    #[test]
    fn kill_fault_fells_the_destination_pe() {
        let (mut des, e, a, b) = forward_pair();
        des.set_fault_plan(FaultPlan::parse("kill:entry=ping:dst=1").unwrap());
        des.inject(a, e, 0, PRIO_NORMAL, Vec::new());
        des.run();
        // a ran; b's PE died before the forward arrived.
        assert_eq!(des.stats().entry_count[e.idx()], 1);
        assert_eq!(des.crashed(), Some(1));
        assert_eq!(des.stats().pes_killed, 1);
        // The lost message is dropped (no dead letter to redeliver), and
        // the conservation ledger still balances.
        assert_eq!(des.stats().msgs_dropped, 1);
        assert_eq!(des.redeliver_dead_letters(), 0);
        assert_eq!(des.stats().conservation_residual(), 0);
        // Injections into the dead PE are discarded, not executed.
        let before = des.stats().entry_count[e.idx()];
        des.inject(b, e, 0, PRIO_NORMAL, Vec::new());
        des.run();
        assert_eq!(des.stats().entry_count[e.idx()], before);
        assert_eq!(des.stats().conservation_residual(), 0);
    }

    /// Forwards one tagged (non-empty) payload to a peer on first receipt.
    struct TagSender {
        to: ObjId,
        entry: EntryId,
    }

    impl Chare for TagSender {
        fn receive(&mut self, _e: EntryId, _p: Payload, ctx: &mut Ctx) {
            ctx.send(self.to, self.entry, 64, PRIO_NORMAL, tag(7));
        }
    }

    #[test]
    fn corrupt_fault_is_rejected_by_crc_then_repaired() {
        let mut des = Des::new(2, presets::ideal());
        let e = des.register_entry("tagged");
        let order = Arc::new(Mutex::new(Vec::new()));
        let b = des.register(Box::new(Node { order: order.clone(), ..Node::new() }), 1, true);
        let a = des.register(Box::new(TagSender { to: b, entry: e }), 0, true);
        des.set_fault_plan(FaultPlan::parse("corrupt:entry=tagged:bytes=1").unwrap());
        des.inject(a, e, 0, PRIO_NORMAL, Vec::new());
        des.run();
        // The flipped payload failed its CRC at delivery: b never saw it.
        assert!(order.lock().unwrap().is_empty());
        assert_eq!(des.stats().msgs_corrupted, 1);
        assert_eq!(des.stats().msgs_crc_rejected, 1);
        assert_eq!(des.stats().msgs_dropped, 1);
        assert_eq!(des.stats().conservation_residual(), 0);
        // The clean copy was dead-lettered; the retransmission arrives
        // intact and delivers the original bytes.
        assert_eq!(des.redeliver_dead_letters(), 1);
        des.run();
        assert_eq!(*order.lock().unwrap(), vec![7]);
        assert_eq!(des.stats().conservation_residual(), 0);
    }

    #[test]
    fn corrupting_an_empty_payload_still_trips_the_crc() {
        let (mut des, e, a, _b) = forward_pair();
        des.set_fault_plan(FaultPlan::parse("corrupt:entry=ping").unwrap());
        des.inject(a, e, 0, PRIO_NORMAL, Vec::new());
        des.run();
        // There are no payload bytes to flip, so the fault inverts the
        // stored checksum instead — the receiver must still reject it.
        assert_eq!(des.stats().entry_count[e.idx()], 1, "only the sender ran");
        assert_eq!((des.stats().msgs_corrupted, des.stats().msgs_crc_rejected), (1, 1));
        assert_eq!(des.redeliver_dead_letters(), 1);
        des.run();
        assert_eq!(des.stats().entry_count[e.idx()], 2);
        assert_eq!(des.stats().conservation_residual(), 0);
    }

    #[test]
    fn lifo_policy_reverses_dequeue_order_and_ignores_priority() {
        let mut des = Des::new(1, presets::ideal());
        let e = des.register_entry("tagged");
        let order = Arc::new(Mutex::new(Vec::new()));
        let sink = des.register(
            Box::new(Node { work: 10.0, order: order.clone(), ..Node::new() }),
            0,
            true,
        );
        des.set_schedule_policy(SchedulePolicy::adversarial_lifo());
        des.inject(sink, e, 0, PRIO_NORMAL, tag(1));
        des.inject(sink, e, 0, PRIO_LOW, tag(3));
        des.inject(sink, e, 0, PRIO_NORMAL, tag(2));
        des.inject(sink, e, 0, PRIO_HIGH, tag(0));
        des.run();
        // Newest-injected first, regardless of priority.
        assert_eq!(*order.lock().unwrap(), vec![0, 2, 3, 1]);
    }

    #[test]
    fn critical_path_is_the_longest_dependency_chain() {
        let mut des = Des::new(2, presets::ideal());
        let ping = des.register_entry("ping");
        let b = des.register(Box::new(Node { work: 100.0, ..Node::new() }), 1, true);
        let a = des.register(
            Box::new(Node { forward: Some((b, ping)), work: 50.0, ..Node::new() }),
            0,
            true,
        );
        // An independent heavy task, off the chain.
        let c = des.register(Box::new(Node { work: 120.0, ..Node::new() }), 0, true);
        des.inject(a, ping, 0, PRIO_NORMAL, Vec::new());
        des.inject(c, ping, 0, PRIO_NORMAL, Vec::new());
        des.run();
        // The a→b chain (50 + 100 µs) dominates the independent 120 µs task.
        assert!(
            (des.stats().critical_path - 150e-6).abs() < 1e-12,
            "critical path {}",
            des.stats().critical_path
        );
    }

    #[test]
    fn pe_overhead_is_the_messaging_share_of_busy() {
        let mut des = Des::new(2, presets::asci_red());
        let e = des.register_entry("x");
        let b = des.register(Box::new(Node::new()), 1, true);
        let a =
            des.register(Box::new(Node { forward: Some((b, e)), ..Node::new() }), 0, true);
        des.inject(a, e, 0, PRIO_NORMAL, Vec::new());
        des.run();
        // a declares no work: its whole handler cost is messaging overhead.
        assert!(des.stats().pe_overhead[0] > 0.0);
        assert!((des.stats().pe_overhead[0] - des.stats().pe_busy[0]).abs() < 1e-15);
        for pe in 0..2 {
            assert!(des.stats().pe_overhead[pe] <= des.stats().pe_busy[pe] + 1e-15);
        }
    }

    #[test]
    fn shuffled_schedule_is_replay_deterministic() {
        let run_with = |seed: u64| {
            let mut des = Des::new(4, presets::asci_red());
            let e = des.register_entry("d");
            des.set_schedule_policy(SchedulePolicy::random_shuffle(seed));
            des.set_tracing(true);
            let mut last = None;
            for pe in 0..4 {
                let node = Node { forward: last.map(|o| (o, e)), work: 33.0, ..Node::new() };
                last = Some(des.register(Box::new(node), pe, true));
            }
            for _ in 0..3 {
                des.inject(last.unwrap(), e, 64, PRIO_NORMAL, Vec::new());
            }
            let t = des.run();
            (t.to_bits(), des.trace().clone())
        };
        let (t1, trace1) = run_with(7);
        let (t2, trace2) = run_with(7);
        assert_eq!(t1, t2);
        assert_eq!(trace1, trace2, "identical seed must replay identically");
    }
}
