//! Summary-profile instrumentation (§4.1, level two).
//!
//! Mirrors the Charm++ summary profiles: per-entry-method accumulated
//! execution time and counts, per-PE busy time, and aggregate communication
//! overheads. Unlike function-level profiling there are only dozens of entry
//! methods, so the data stays small and the act of measuring costs nothing
//! in the virtual-time model.

use crate::msg::EntryId;
use crate::wire::EntryTable;

/// Accumulated summary statistics for a run (or a measurement window —
/// see [`SummaryStats::reset`]).
#[derive(Debug, Clone, Default)]
pub struct SummaryStats {
    /// The wire-stable entry registry, indexed by `EntryId` (derefs to
    /// `[String]`, so name-slice consumers keep working).
    pub entry_names: EntryTable,
    /// Total handler CPU time per entry method, seconds.
    pub entry_time: Vec<f64>,
    /// Invocation count per entry method.
    pub entry_count: Vec<u64>,
    /// Messages sent per entry method (wire accounting: counted once per
    /// destination, including multicast copies).
    pub entry_wire_msgs: Vec<u64>,
    /// *Packed* payload bytes sent per entry method — the actual
    /// serialized length on the wire, as opposed to `bytes_sent`, which is
    /// the cost model's modeled message size.
    pub entry_wire_bytes: Vec<u64>,
    /// Busy (handler-executing) time per PE, seconds.
    pub pe_busy: Vec<f64>,
    /// Messaging overhead per PE (receive + send + packing attributed to
    /// the handlers that ran there), seconds. A subset of `pe_busy`, so
    /// `pe_busy - pe_overhead` is pure application work. Filled by the DES
    /// backend, whose cost model separates the components; the threads
    /// backend measures handlers whole and leaves this zero.
    pub pe_overhead: Vec<f64>,
    /// Longest dependency chain through the message graph, seconds: the
    /// maximum over all executed handlers of (path length carried by the
    /// triggering message + that handler's cost). Virtual time on the DES,
    /// measured wall time on threads. With unbounded PEs no schedule can
    /// finish the window faster than this.
    pub critical_path: f64,
    /// Total sender-side message overhead (send + per-byte packing), seconds.
    pub send_overhead: f64,
    /// Total user-level allocation/packing time (the multicast cost the
    /// paper's §4.2.3 halves), seconds.
    pub pack_time: f64,
    /// Total receiver-side message overhead, seconds.
    pub recv_overhead: f64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages received (handler executions).
    pub msgs_received: u64,
    /// Messages injected from outside the object graph (bootstrap).
    pub msgs_injected: u64,
    /// Messages dropped by the installed fault plan.
    pub msgs_dropped: u64,
    /// Extra copies delivered by the fault plan's duplicate rules.
    pub msgs_duplicated: u64,
    /// Messages delayed by the fault plan.
    pub msgs_delayed: u64,
    /// Dead letters re-sent via `Runtime::redeliver_dead_letters`.
    pub msgs_redelivered: u64,
    /// Messages still queued when `Ctx::stop` ended the run (discarded).
    pub msgs_discarded: u64,
    /// PEs killed by the fault plan's kill rules. Messages lost with a
    /// dying PE are counted in `msgs_dropped` (no dead letter), keeping
    /// the conservation ledger balanced.
    pub pes_killed: u64,
    /// Messages whose payload bytes were flipped by a `corrupt` fault rule
    /// (a clean copy is retained as a dead letter for repair).
    pub msgs_corrupted: u64,
    /// Corrupted messages the payload CRC rejected at delivery (each is
    /// also counted in `msgs_dropped`, keeping the ledger balanced).
    pub msgs_crc_rejected: u64,
    /// Virtual time when the current measurement window began.
    pub window_start: f64,
}

impl SummaryStats {
    pub(crate) fn new(n_pes: usize) -> Self {
        SummaryStats {
            pe_busy: vec![0.0; n_pes],
            pe_overhead: vec![0.0; n_pes],
            ..Default::default()
        }
    }

    pub(crate) fn register_entry(&mut self, name: &str) -> EntryId {
        let id = self.entry_names.register(name);
        self.entry_time.push(0.0);
        self.entry_count.push(0);
        self.entry_wire_msgs.push(0);
        self.entry_wire_bytes.push(0);
        id
    }

    /// Account one message entering the wire: `len` packed payload bytes
    /// bound for one destination.
    pub(crate) fn count_wire(&mut self, entry: EntryId, len: usize) {
        self.entry_wire_msgs[entry.idx()] += 1;
        self.entry_wire_bytes[entry.idx()] += len as u64;
    }

    /// Total messages across entries, wire accounting.
    pub fn wire_msgs(&self) -> u64 {
        self.entry_wire_msgs.iter().sum()
    }

    /// Total packed payload bytes across entries, wire accounting.
    pub fn wire_bytes(&self) -> u64 {
        self.entry_wire_bytes.iter().sum()
    }

    /// Zero all counters and restart the measurement window at `now`.
    /// Entry registrations are preserved.
    pub fn reset(&mut self, now: f64) {
        self.entry_time.iter_mut().for_each(|t| *t = 0.0);
        self.entry_count.iter_mut().for_each(|c| *c = 0);
        self.entry_wire_msgs.iter_mut().for_each(|c| *c = 0);
        self.entry_wire_bytes.iter_mut().for_each(|c| *c = 0);
        self.pe_busy.iter_mut().for_each(|t| *t = 0.0);
        self.pe_overhead.iter_mut().for_each(|t| *t = 0.0);
        self.critical_path = 0.0;
        self.send_overhead = 0.0;
        self.pack_time = 0.0;
        self.recv_overhead = 0.0;
        self.msgs_sent = 0;
        self.bytes_sent = 0;
        self.msgs_received = 0;
        self.msgs_injected = 0;
        self.msgs_dropped = 0;
        self.msgs_duplicated = 0;
        self.msgs_delayed = 0;
        self.msgs_redelivered = 0;
        self.msgs_discarded = 0;
        self.pes_killed = 0;
        self.msgs_corrupted = 0;
        self.msgs_crc_rejected = 0;
        self.window_start = now;
    }

    /// Add another window's measurements into this one — a worker's
    /// [`crate::pe::Meter`] into its runtime's. Both must have the same
    /// shape (PEs, registered entries); names and the window start are the
    /// receiver's.
    pub(crate) fn absorb(&mut self, o: &SummaryStats) {
        assert_eq!(
            (self.pe_busy.len(), self.entry_time.len()),
            (o.pe_busy.len(), o.entry_time.len()),
            "absorbing stats of a different shape"
        );
        let add_f = |a: &mut [f64], b: &[f64]| a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
        let add_u = |a: &mut [u64], b: &[u64]| a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
        add_f(&mut self.entry_time, &o.entry_time);
        add_u(&mut self.entry_count, &o.entry_count);
        add_u(&mut self.entry_wire_msgs, &o.entry_wire_msgs);
        add_u(&mut self.entry_wire_bytes, &o.entry_wire_bytes);
        add_f(&mut self.pe_busy, &o.pe_busy);
        add_f(&mut self.pe_overhead, &o.pe_overhead);
        self.critical_path = self.critical_path.max(o.critical_path);
        self.send_overhead += o.send_overhead;
        self.pack_time += o.pack_time;
        self.recv_overhead += o.recv_overhead;
        self.msgs_sent += o.msgs_sent;
        self.bytes_sent += o.bytes_sent;
        self.msgs_received += o.msgs_received;
        self.msgs_injected += o.msgs_injected;
        self.msgs_dropped += o.msgs_dropped;
        self.msgs_duplicated += o.msgs_duplicated;
        self.msgs_delayed += o.msgs_delayed;
        self.msgs_redelivered += o.msgs_redelivered;
        self.msgs_discarded += o.msgs_discarded;
        self.pes_killed += o.pes_killed;
        self.msgs_corrupted += o.msgs_corrupted;
        self.msgs_crc_rejected += o.msgs_crc_rejected;
    }

    /// Message-conservation residual: how many messages entered the system
    /// (sends + injections + duplicate copies + redeliveries, minus drops)
    /// but were neither received nor accounted for as discarded at
    /// `Ctx::stop`. Zero for any completed run whose dead letters were all
    /// redelivered; a positive residual means messages were silently lost —
    /// the invariant the fault-injection oracle checks.
    pub fn conservation_residual(&self) -> i64 {
        let entered = self.msgs_sent + self.msgs_injected + self.msgs_duplicated
            + self.msgs_redelivered
            - self.msgs_dropped;
        entered as i64 - (self.msgs_received + self.msgs_discarded) as i64
    }

    /// Maximum busy time across PEs over the window.
    pub fn max_busy(&self) -> f64 {
        self.pe_busy.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_busy_is_the_busiest_pe() {
        let mut s = SummaryStats::new(4);
        s.pe_busy = vec![1.0, 2.0, 3.0, 6.0];
        assert!((s.max_busy() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn reset_preserves_registrations() {
        let mut s = SummaryStats::new(2);
        let a = s.register_entry("x");
        s.entry_time[a.idx()] = 5.0;
        s.entry_count[a.idx()] = 3;
        s.pe_busy[0] = 1.0;
        s.send_overhead = 0.5;
        s.reset(10.0);
        assert_eq!(s.entry_names.name(a), "x");
        assert_eq!(s.entry_time[a.idx()], 0.0);
        assert_eq!(s.entry_count[a.idx()], 0);
        assert_eq!(s.pe_busy[0], 0.0);
        assert_eq!(s.send_overhead, 0.0);
        assert_eq!(s.window_start, 10.0);
    }

    #[test]
    fn wire_counters_accumulate_and_reset() {
        let mut s = SummaryStats::new(1);
        let a = s.register_entry("x");
        s.register_entry("y");
        s.count_wire(a, 100);
        s.count_wire(a, 28);
        assert_eq!(s.entry_wire_msgs[a.idx()], 2);
        assert_eq!(s.entry_wire_bytes[a.idx()], 128);
        assert_eq!((s.wire_msgs(), s.wire_bytes()), (2, 128));
        s.reset(0.0);
        assert_eq!((s.wire_msgs(), s.wire_bytes()), (0, 0));
    }
}
