//! What a PE is on every backend: the message it queues, the order it
//! dequeues in, what it measures when a handler runs, and what a faulty
//! network does to its sends.
//!
//! [`crate::Des`], [`crate::ThreadRuntime`] and [`crate::ProcRuntime`]
//! decide only *where* a PE's scheduler runs — on a virtual clock, an OS
//! thread, an OS process — and call this module for the rest, so the
//! accounting conventions behind [`SummaryStats`], the dequeue-order
//! contract and the fault semantics of [`crate::fault`] each have one
//! definition:
//!
//! * [`Letter`] / [`Queued`] — a message at rest and a message in a
//!   scheduler queue, with the one inverted `Ord` that makes a max-heap
//!   pop the smallest `(key, seq)`.
//! * [`Meter`] — the three measurement products plus the rules that fill
//!   them. The DES records the whole machine into its runtime's meter
//!   directly (so its sums keep one order); each worker of a concurrent
//!   backend records into a [`Meter::fresh`] one of its own, which the
//!   runtime [`Meter::absorb`]s after the join or — packed as a
//!   [`WireCodec`] — after it crossed a process boundary.
//! * [`apply_fault`] — turns one send and the fault plan's verdict on it
//!   into a [`Fate`]; the backend only schedules what is left.

use crate::chare::{Chare, Ctx, OutMsg};
use crate::fault::FaultAction;
use crate::ldb::LdbDatabase;
use crate::msg::{EntryId, ObjId, Payload, Pe, Priority};
use crate::sched::SchedulePolicy;
use crate::stats::SummaryStats;
use crate::trace::{Trace, TraceEvent};
use crate::wire::{crc64, get_u64s, put_u64s, Dec, Enc, WireCodec, WireError};
use std::cmp::Ordering;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A message at rest: injected and not yet queued, dead-lettered by the
/// fault plan, or held over from a stalled run. Everything needed to
/// (re-)queue it — payloads survive a drop, as a retransmitting sender
/// still holds the message body.
#[derive(Clone)]
pub(crate) struct Letter {
    pub to: ObjId,
    pub entry: EntryId,
    /// *Modeled* size, bytes — the cost model's notion, not `payload.len()`.
    pub bytes: usize,
    pub priority: Priority,
    pub payload: Payload,
    /// Length of the dependency chain (sum of handler seconds) that
    /// produced this message — the critical-path accumulator. Zero for
    /// bootstraps; preserved across dead-lettering and redelivery.
    pub path: f64,
}

impl Letter {
    /// The letter a handler's send becomes once the handler has ended a
    /// dependency chain of `path` seconds.
    pub fn from_send(s: OutMsg, path: f64) -> Letter {
        Letter {
            to: s.to,
            entry: s.entry,
            bytes: s.bytes,
            priority: s.priority,
            payload: s.payload,
            path,
        }
    }
}

/// A delivered, not yet executed message in a PE's scheduler queue.
pub(crate) struct Queued {
    /// Dequeue-order key from the [`SchedulePolicy`] (smaller runs first);
    /// `(priority, seq)` under the default FIFO policy.
    pub key: (i64, u64),
    pub seq: u64,
    /// CRC-64 of the payload stamped at send time when the fault plan can
    /// corrupt messages; verified before the handler runs
    /// ([`Meter::rejects`]). `None` when no corruption is possible — the
    /// common case, where checksumming would be wasted cycles.
    pub crc: Option<u64>,
    pub msg: Letter,
}

impl Queued {
    pub fn new(policy: &SchedulePolicy, seq: u64, msg: Letter, crc: Option<u64>) -> Queued {
        Queued { key: policy.key(msg.priority, seq), seq, crc, msg }
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    // BinaryHeap is a max-heap; every backend wants the *smallest*
    // (key, seq) out first, so invert the comparison.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.key, other.seq).cmp(&(self.key, self.seq))
    }
}

/// The clock of one wall-clock run: a monotonic epoch every handler time
/// is relative to, and that epoch's Unix time, so trace events carry
/// `unix + start` and timeline diagnostics line up with external logs
/// (checkpoint fsync stalls, competing load).
pub(crate) struct WallClock {
    epoch: Instant,
    unix: f64,
}

impl WallClock {
    pub fn start() -> WallClock {
        let unix = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0.0, |d| d.as_secs_f64());
        WallClock { epoch: Instant::now(), unix }
    }
}

/// Summary profile, load database and event trace, and the one set of
/// rules that fills them. See the module docs for who owns one.
#[derive(Default)]
pub(crate) struct Meter {
    pub stats: SummaryStats,
    pub ldb: LdbDatabase,
    pub trace: Trace,
    /// Whether [`Meter::executed`] records a [`TraceEvent`] per handler.
    pub tracing: bool,
    /// Latest handler end time: the makespan of what this meter saw.
    pub last_end: f64,
}

impl Meter {
    pub fn new(n_pes: usize) -> Meter {
        Meter {
            stats: SummaryStats::new(n_pes),
            ldb: LdbDatabase::new(n_pes),
            ..Meter::default()
        }
    }

    /// An empty meter of the same shape (PEs, entries, objects, tracing
    /// flag) for one worker of a concurrent backend.
    pub fn fresh(&self) -> Meter {
        let mut stats = self.stats.clone();
        stats.reset(0.0);
        Meter {
            stats,
            ldb: self.ldb.zeroed(),
            trace: Trace::default(),
            tracing: self.tracing,
            last_end: 0.0,
        }
    }

    /// Record one handler execution: `obj`'s `entry` ran on `pe` from
    /// `start` for `secs` (virtual or measured), triggered by a message
    /// that carried a dependency chain of `path` seconds. Returns the chain
    /// length the handler's own sends carry: the longest chain ending at a
    /// handler is whatever produced its message plus its own cost.
    pub fn executed(
        &mut self,
        pe: Pe,
        obj: ObjId,
        entry: EntryId,
        start: f64,
        secs: f64,
        wall: f64,
        path: f64,
    ) -> f64 {
        let end = start + secs;
        let end_path = path + secs;
        self.stats.critical_path = self.stats.critical_path.max(end_path);
        self.last_end = self.last_end.max(end);
        self.stats.pe_busy[pe] += secs;
        self.stats.entry_time[entry.idx()] += secs;
        self.stats.entry_count[entry.idx()] += 1;
        self.stats.msgs_received += 1;
        self.ldb.attribute(obj, pe, secs);
        if self.tracing {
            self.trace.record(TraceEvent { pe, obj, entry, start, end, wall });
        }
        end_path
    }

    /// Wall-clock backends: run `msg`'s handler on `obj` under `clock` and
    /// record it. Returns the handler's context (its sends, its stop flag)
    /// and the chain length those sends carry.
    pub fn run_handler(
        &mut self,
        clock: &WallClock,
        pe: Pe,
        n_pes: usize,
        obj: &mut dyn Chare,
        msg: Letter,
    ) -> (Ctx, f64) {
        let start = clock.epoch.elapsed().as_secs_f64();
        let mut ctx = Ctx::new(pe, start, msg.to, n_pes);
        obj.receive(msg.entry, msg.payload, &mut ctx);
        let secs = clock.epoch.elapsed().as_secs_f64() - start;
        let end_path =
            self.executed(pe, msg.to, msg.entry, start, secs, clock.unix + start, msg.path);
        (ctx, end_path)
    }

    /// Record one send: one message and its modeled bytes on the cost
    /// model's side, one message and its *packed* payload length on the
    /// wire's — counted once per destination, multicast copies included,
    /// and whatever the network then does to it.
    pub fn sent(&mut self, s: &OutMsg) {
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += s.bytes as u64;
        self.stats.count_wire(s.entry, s.payload.len());
    }

    /// Verify the payload CRC stamped at send time (corrupt-fault runs
    /// only) before the handler sees the bytes, exactly as a NIC discards
    /// a frame with a bad FCS. A damaged message is counted as dropped so
    /// the conservation ledger balances; the clean dead-lettered copy
    /// repairs delivery later.
    pub fn rejects(&mut self, q: &Queued) -> bool {
        let damaged = q.crc.is_some_and(|stamped| crc64(&q.msg.payload) != stamped);
        if damaged {
            self.stats.msgs_crc_rejected += 1;
            self.stats.msgs_dropped += 1;
        }
        damaged
    }

    /// Fold in what one worker measured.
    pub fn absorb(&mut self, worker: Meter) {
        self.stats.absorb(&worker.stats);
        self.ldb.absorb(&worker.ldb);
        self.trace.events.extend(worker.trace.events);
        self.last_end = self.last_end.max(worker.last_end);
    }
}

/// A worker's meter as it crosses a process boundary: every field a
/// worker can fill, and nothing the parent already holds (entry names,
/// migratability). The result is only good for [`Meter::absorb`].
impl WireCodec for Meter {
    fn pack(&self) -> Payload {
        let s = &self.stats;
        let mut e = Enc::new();
        e.f64s(&s.pe_busy);
        e.f64s(&s.entry_time);
        put_u64s(&mut e, &s.entry_count);
        put_u64s(&mut e, &s.entry_wire_msgs);
        put_u64s(&mut e, &s.entry_wire_bytes);
        put_u64s(
            &mut e,
            &[
                s.msgs_sent,
                s.bytes_sent,
                s.msgs_received,
                s.msgs_discarded,
                s.msgs_dropped,
                s.msgs_duplicated,
                s.msgs_delayed,
                s.pes_killed,
                s.msgs_corrupted,
                s.msgs_crc_rejected,
            ],
        );
        e.f64(s.critical_path);
        e.f64(self.last_end);
        self.ldb.pack_loads(&mut e);
        e.u64(self.trace.events.len() as u64);
        for ev in &self.trace.events {
            e.u32(ev.pe as u32);
            e.u32(ev.obj.0);
            e.u16(ev.entry.0);
            e.f64(ev.start);
            e.f64(ev.end);
            e.f64(ev.wall);
        }
        e.into_bytes()
    }

    fn unpack(bytes: &[u8]) -> Result<Meter, WireError> {
        let mut d = Dec::new(bytes);
        let mut m = Meter::default();
        let s = &mut m.stats;
        s.pe_busy = d.f64s("pe_busy")?;
        s.entry_time = d.f64s("entry_time")?;
        s.entry_count = get_u64s(&mut d, "entry_count")?;
        s.entry_wire_msgs = get_u64s(&mut d, "entry_wire_msgs")?;
        s.entry_wire_bytes = get_u64s(&mut d, "entry_wire_bytes")?;
        let counts: [u64; 10] = get_u64s(&mut d, "counters")?
            .try_into()
            .map_err(|v: Vec<u64>| WireError(format!("{} meter counters, want 10", v.len())))?;
        [
            s.msgs_sent,
            s.bytes_sent,
            s.msgs_received,
            s.msgs_discarded,
            s.msgs_dropped,
            s.msgs_duplicated,
            s.msgs_delayed,
            s.pes_killed,
            s.msgs_corrupted,
            s.msgs_crc_rejected,
        ] = counts;
        s.critical_path = d.f64("critical_path")?;
        m.last_end = d.f64("last_end")?;
        m.ldb.unpack_loads(&mut d)?;
        // Bound the allocation by what the frame can actually hold.
        let n_trace = d.u64("n_trace")? as usize;
        m.trace.events.reserve(n_trace.min(d.remaining() / 34));
        for _ in 0..n_trace {
            m.trace.events.push(TraceEvent {
                pe: d.u32("t_pe")? as usize,
                obj: ObjId(d.u32("t_obj")?),
                entry: EntryId(d.u16("t_entry")?),
                start: d.f64("t_start")?,
                end: d.f64("t_end")?,
                wall: d.f64("t_wall")?,
            });
        }
        if d.remaining() != 0 {
            return Err(WireError(format!("{} trailing bytes after Meter", d.remaining())));
        }
        Ok(m)
    }
}

/// What the (possibly faulty) network does with one send.
pub(crate) enum Fate {
    /// It never arrives. `killed`: its destination PE dies at what would
    /// have been the delivery, and the message dies with it.
    Lost { killed: bool },
    /// It arrives — damaged, if `crc` no longer matches the payload —
    /// `delay` (virtual) seconds late if delayed, and with an extra
    /// empty-payload `duplicate` arriving ahead of it if duplicated.
    Deliver { msg: Letter, crc: Option<u64>, duplicate: Option<Letter>, delay: Option<f64> },
}

/// Apply the fault plan's verdict on one send (`action`, from
/// [`crate::fault::FaultState::decide`]; `None` = deliver intact): count
/// it in `stats`, retain what a retransmission will need in
/// `dead_letters`, damage what travels. `stamp_crc` is whether the
/// installed plan can corrupt payloads at all — the CRC is stamped before
/// the "network" can touch the bytes, and only then.
pub(crate) fn apply_fault(
    action: Option<FaultAction>,
    mut msg: Letter,
    stamp_crc: bool,
    stats: &mut SummaryStats,
    dead_letters: &mut Vec<Letter>,
) -> Fate {
    let mut crc = stamp_crc.then(|| crc64(&msg.payload));
    let (mut duplicate, mut delay) = (None, None);
    match action {
        Some(FaultAction::Drop) => {
            // Lost in the network: the send was costed and counted, the
            // quiescence accounting sees a send no receive will match.
            // Retained for redelivery.
            stats.msgs_dropped += 1;
            dead_letters.push(msg);
            return Fate::Lost { killed: false };
        }
        Some(FaultAction::Kill) => {
            // Dropped, not dead-lettered: there is no PE left to retry
            // into. The caller recovers from a checkpoint, not by
            // redelivery.
            stats.msgs_dropped += 1;
            return Fate::Lost { killed: true };
        }
        Some(FaultAction::Duplicate) => {
            // The extra copy is an empty header re-send: delivering the
            // body twice would double-apply it — the protocol only has to
            // tolerate the spurious wakeup.
            stats.msgs_duplicated += 1;
            duplicate = Some(Letter { payload: Vec::new(), ..msg });
        }
        Some(FaultAction::Delay(d)) => {
            stats.msgs_delayed += 1;
            delay = Some(d);
        }
        Some(FaultAction::Corrupt(n)) => {
            // Keep a clean copy for repair, then flip bytes in the copy
            // that travels. An empty payload has no bytes to flip, so
            // damage the stamped CRC instead — either way delivery must
            // reject the message.
            stats.msgs_corrupted += 1;
            dead_letters.push(msg.clone());
            if msg.payload.is_empty() {
                crc = crc.map(|c| !c);
            } else {
                let flip = (n as usize).min(msg.payload.len());
                for b in &mut msg.payload[..flip] {
                    *b ^= 0xFF;
                }
            }
        }
        None => {}
    }
    Fate::Deliver { msg, crc, duplicate, delay }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::PRIO_NORMAL;
    use std::collections::BinaryHeap;

    fn letter(priority: Priority, payload: Payload) -> Letter {
        Letter { to: ObjId(1), entry: EntryId(0), bytes: 64, priority, payload, path: 0.25 }
    }

    #[test]
    fn heap_pops_smallest_key_then_arrival_order() {
        let fifo = SchedulePolicy::fifo();
        let mut heap = BinaryHeap::new();
        for (seq, prio) in [(1, 0), (2, 10), (3, 0), (4, -10)] {
            heap.push(Queued::new(&fifo, seq, letter(prio, Vec::new()), None));
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|q| q.seq).collect();
        assert_eq!(order, vec![4, 1, 3, 2]);
    }

    #[test]
    fn a_worker_meter_survives_the_wire_and_absorbs_exactly() {
        let mut rt = Meter::new(2);
        let e = rt.stats.register_entry("work");
        rt.ldb.on_register(true);
        rt.ldb.on_register(false);
        rt.tracing = true;

        let mut w = rt.fresh();
        assert_eq!(w.executed(1, ObjId(0), e, 1.0, 0.5, 9.0, 0.25), 0.75);
        w.executed(1, ObjId(1), e, 2.0, 0.125, 9.0, 0.0);
        let send = OutMsg {
            to: ObjId(1),
            entry: e,
            bytes: 100,
            priority: PRIO_NORMAL,
            payload: vec![1, 2, 3],
            pack: crate::chare::PackCost::Single,
        };
        w.sent(&send);
        w.stats.msgs_discarded = 4;

        rt.absorb(Meter::unpack(&w.pack()).unwrap());
        assert_eq!(rt.stats.pe_busy, vec![0.0, 0.625]);
        assert_eq!((rt.stats.entry_time[0], rt.stats.entry_count[0]), (0.625, 2));
        assert_eq!((rt.stats.msgs_sent, rt.stats.bytes_sent, rt.stats.msgs_received), (1, 100, 2));
        assert_eq!((rt.stats.entry_wire_msgs[0], rt.stats.entry_wire_bytes[0]), (1, 3));
        assert_eq!((rt.stats.msgs_discarded, rt.stats.critical_path), (4, 0.75));
        assert_eq!(rt.last_end, 2.125);
        let snap = rt.ldb.snapshot(&[1, 1]);
        assert_eq!((snap.objects[0].load, snap.background[1]), (0.5, 0.125));
        assert_eq!(rt.trace.events, w.trace.events);
        assert_eq!(rt.trace.events.len(), 2);

        // Untraced, the same executions leave no events behind.
        rt.tracing = false;
        let mut quiet = rt.fresh();
        quiet.executed(0, ObjId(0), e, 0.0, 1.0, 0.0, 0.0);
        assert!(quiet.trace.events.is_empty());
        let packed = quiet.pack();
        assert!(Meter::unpack(&packed[..packed.len() - 1]).is_err());
    }

    #[test]
    fn corruption_is_caught_at_delivery_and_leaves_a_clean_dead_letter() {
        let mut stats = SummaryStats::new(1);
        let mut dead = Vec::new();
        for payload in [vec![7u8, 7], Vec::new()] {
            let fate = apply_fault(
                Some(FaultAction::Corrupt(1)),
                letter(0, payload.clone()),
                true,
                &mut stats,
                &mut dead,
            );
            let Fate::Deliver { msg, crc, duplicate: None, delay: None } = fate else {
                panic!("a corrupted message still travels");
            };
            assert_eq!(dead.pop().unwrap().payload, payload, "the dead letter is clean");
            let mut m = Meter::new(1);
            assert!(m.rejects(&Queued::new(&SchedulePolicy::fifo(), 1, msg, crc)));
            assert_eq!((m.stats.msgs_crc_rejected, m.stats.msgs_dropped), (1, 1));
        }
        assert_eq!(stats.msgs_corrupted, 2);
    }
}
