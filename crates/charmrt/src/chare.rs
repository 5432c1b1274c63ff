//! The data-driven object (chare) abstraction and the execution context
//! handed to entry methods.

use crate::msg::{ObjId, Payload, Pe, Priority};
use crate::wire::WireError;

/// A data-driven object. All computation happens inside [`Chare::receive`],
/// triggered by message delivery — the runtime's per-PE scheduler picks the
/// next available message and invokes the indicated method on the indicated
/// object, exactly as described in §2.2 of the paper.
///
/// `Send` because the real-threads backend owns each chare on one worker
/// thread at a time (and migration moves it between workers); there is no
/// concurrent sharing of a chare, only transfer of ownership. `Any` so a
/// driver can take back, between runs, what it lent a chare of a known
/// type (`&mut dyn Chare` upcasts to `&mut dyn Any`).
pub trait Chare: Send + std::any::Any {
    /// Handle one message. `entry` selects the method, `payload` carries the
    /// packed wire bytes (unpack with the message type's
    /// [`WireCodec`](crate::wire::WireCodec)); use `ctx` to send messages,
    /// declare modeled work, and query the runtime.
    fn receive(&mut self, entry: crate::msg::EntryId, payload: Payload, ctx: &mut Ctx);

    /// Pack the state this chare holds after the run and its driver needs
    /// back: drivers read it through `Runtime::object`, and when PEs are
    /// separate OS processes (the `proc` backend) the same bytes carry it
    /// from the worker to the parent's instance first. Default: nothing —
    /// most chares are pure protocol actors whose results leave via
    /// messages or the checkpoint directory.
    fn harvest_state(&self) -> Payload {
        Vec::new()
    }

    /// Apply bytes produced by [`Chare::harvest_state`] in a worker process
    /// to this (parent-resident) instance. Must accept exactly what
    /// `harvest_state` produces. Default: reject non-empty payloads, so a
    /// chare that harvests but forgets to merge fails loudly.
    fn merge_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(WireError("chare harvested state but implements no merge_state".into()))
        }
    }
}

/// How a coordinate-style multicast is costed (§4.2.3 of the paper):
/// the naive path packs and allocates per destination; the optimized path
/// packs once and reuses the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MulticastMode {
    /// One user-level allocation+packing per destination message.
    Naive,
    /// A single user-level allocation+packing shared by all destinations.
    Optimized,
}

/// One outgoing message recorded during an entry-method execution.
#[derive(Debug)]
pub(crate) struct OutMsg {
    pub to: ObjId,
    pub entry: crate::msg::EntryId,
    pub bytes: usize,
    pub priority: Priority,
    pub payload: Payload,
    /// Sender-side CPU cost category: position in the multicast, if any.
    pub pack: PackCost,
}

/// Sender-side packing cost classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PackCost {
    /// Standalone message: full pack + send overhead.
    Single,
    /// First message of an optimized multicast: pays the one packing.
    McFirst,
    /// Subsequent message of an optimized multicast: send overhead only.
    McRest,
}

/// Execution context for one entry-method invocation. Collects the work the
/// method performs and the messages it sends; the engine converts both into
/// virtual time using the machine model after the handler returns.
pub struct Ctx {
    pub(crate) sends: Vec<OutMsg>,
    pub(crate) work: f64,
    pub(crate) stop: bool,
    pe: Pe,
    now: f64,
    this: ObjId,
    n_pes: usize,
}

impl Ctx {
    pub(crate) fn new(pe: Pe, now: f64, this: ObjId, n_pes: usize) -> Self {
        Ctx { sends: Vec::new(), work: 0.0, stop: false, pe, now, this, n_pes }
    }

    /// Send a message of `bytes` bytes to another object. The payload is
    /// delivered to the destination's `receive`; `bytes` (not the Rust size
    /// of the payload) drives the communication cost model.
    pub fn send(
        &mut self,
        to: ObjId,
        entry: crate::msg::EntryId,
        bytes: usize,
        priority: Priority,
        payload: Payload,
    ) {
        self.sends.push(OutMsg { to, entry, bytes, priority, payload, pack: PackCost::Single });
    }

    /// Send a signal-only message (no payload bytes beyond a header).
    pub fn signal(&mut self, to: ObjId, entry: crate::msg::EntryId, priority: Priority) {
        self.send(to, entry, 32, priority, Vec::new());
    }

    /// Multicast identical data to several destinations: one packed
    /// payload, cloned per destination (the last destination takes the
    /// original, so an N-way multicast costs N−1 clones). With
    /// [`MulticastMode::Naive`], every destination pays the full
    /// user-level allocation and packing cost in the *cost model*; with
    /// [`MulticastMode::Optimized`] the packing is costed once — §4.2.3's
    /// optimization, which the one-buffer API now realizes for real.
    pub fn multicast(
        &mut self,
        dests: &[ObjId],
        entry: crate::msg::EntryId,
        bytes: usize,
        priority: Priority,
        mode: MulticastMode,
        payload: Payload,
    ) {
        let mut payload = Some(payload);
        let last = dests.len().wrapping_sub(1);
        for (k, &to) in dests.iter().enumerate() {
            let pack = match mode {
                MulticastMode::Naive => PackCost::Single,
                MulticastMode::Optimized if k == 0 => PackCost::McFirst,
                MulticastMode::Optimized => PackCost::McRest,
            };
            let body = if k == last {
                payload.take().unwrap_or_default()
            } else {
                payload.clone().unwrap_or_default()
            };
            self.sends.push(OutMsg { to, entry, bytes, priority, payload: body, pack });
        }
    }

    /// Declare that this entry method performed `units` abstract work units
    /// (≈ non-bonded pair interactions). The engine charges
    /// `machine.task_time(units)` of virtual CPU time.
    pub fn add_work(&mut self, units: f64) {
        debug_assert!(units >= 0.0 && units.is_finite());
        self.work += units;
    }

    /// Current virtual time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The PE this handler is executing on.
    pub fn my_pe(&self) -> Pe {
        self.pe
    }

    /// The object currently executing.
    pub fn this(&self) -> ObjId {
        self.this
    }

    /// Number of PEs in the run.
    pub fn n_pes(&self) -> usize {
        self.n_pes
    }

    /// Request that the engine stop after this handler (end of simulation).
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{EntryId, PRIO_NORMAL};

    #[test]
    fn ctx_records_sends_and_work() {
        let mut ctx = Ctx::new(3, 1.5, ObjId(9), 8);
        assert_eq!(ctx.my_pe(), 3);
        assert_eq!(ctx.now(), 1.5);
        assert_eq!(ctx.this(), ObjId(9));
        assert_eq!(ctx.n_pes(), 8);
        ctx.add_work(10.0);
        ctx.add_work(5.0);
        assert_eq!(ctx.work, 15.0);
        ctx.signal(ObjId(1), EntryId(0), PRIO_NORMAL);
        assert_eq!(ctx.sends.len(), 1);
        assert_eq!(ctx.sends[0].pack, PackCost::Single);
    }

    #[test]
    fn optimized_multicast_marks_first_message() {
        let mut ctx = Ctx::new(0, 0.0, ObjId(0), 4);
        let dests = [ObjId(1), ObjId(2), ObjId(3)];
        ctx.multicast(
            &dests,
            EntryId(1),
            1000,
            PRIO_NORMAL,
            MulticastMode::Optimized,
            vec![7, 8, 9],
        );
        let packs: Vec<_> = ctx.sends.iter().map(|s| s.pack).collect();
        assert_eq!(packs, vec![PackCost::McFirst, PackCost::McRest, PackCost::McRest]);
        // Every destination receives the same bytes.
        assert!(ctx.sends.iter().all(|s| s.payload == vec![7, 8, 9]));
    }

    #[test]
    fn naive_multicast_packs_every_message() {
        let mut ctx = Ctx::new(0, 0.0, ObjId(0), 4);
        let dests = [ObjId(1), ObjId(2)];
        ctx.multicast(&dests, EntryId(1), 1000, PRIO_NORMAL, MulticastMode::Naive, Vec::new());
        assert!(ctx.sends.iter().all(|s| s.pack == PackCost::Single));
    }
}
