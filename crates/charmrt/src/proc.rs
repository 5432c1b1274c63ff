//! Multi-process execution backend: one OS process per PE, exchanging
//! length-prefixed, CRC-checked frames of packed message bytes over Unix
//! domain sockets.
//!
//! This is the closest shape in the repo to the paper's real deployments:
//! PEs share *nothing* but the wire, so every byte a
//! handler consumes arrived as a packed [`WireMsg`] and every result the
//! parent reads back crossed the process boundary explicitly, via
//! [`crate::Chare::harvest_state`] per object.
//!
//! ## Topology and lifecycle
//!
//! The parent binds one `UnixListener` per PE *before* forking (no
//! bind/connect race) and creates one socketpair control channel per
//! child. Each child `p` connects to every lower-numbered peer's listener
//! (announcing itself with a `Hello` frame) and accepts one connection
//! from every higher-numbered peer — a full mesh of n−1 streams. After
//! the mesh is up the child reports `Ready`; once all are ready the
//! parent broadcasts `Go` with the pid map (kill faults need real pids).
//! Bootstrap messages are inherited through `fork` — injection is
//! parent-side by definition — and enqueued when `Go` arrives.
//!
//! A child runs one scheduler thread (prioritized heap, same dequeue key
//! as the other backends) plus one reader thread per peer stream and one
//! control-reader thread — a miniature Converse comm layer.
//!
//! ## Quiescence
//!
//! The parent runs a Mattern-style double poll over the control channels:
//! it probes every child for `(idle, frames sent, frames received,
//! handlers executed)` and declares quiescence only after two consecutive
//! rounds that are identical, all-idle, and channel-balanced
//! (Σsent = Σreceived). It then broadcasts `Drain`: each child discards
//! whatever is still queued (counted as discarded), writes a `FlushMark`
//! on every peer stream, waits until the matching `FlushMark` has arrived
//! from each peer (counting stragglers as discarded too), ships its
//! measurements and harvested state back in a `Results` frame, and
//! `_exit`s. `Ctx::stop` short-circuits the poll: the stopping child
//! reports `Stopped` and the parent drains everyone immediately.
//!
//! ## Failure semantics
//!
//! A [`FaultAction::Kill`] rule maps to a real `SIGKILL` of the
//! destination child, delivered by the *sending* child (it has the pid
//! map). The parent observes the death — a `Killed` control frame from
//! the sender, the victim's control-stream EOF, and `waitpid` — fells the
//! remaining children, and returns [`RunStall`] with
//! [`ProcRuntime::crashed`] set, exactly the contract the
//! checkpoint/recovery layer expects. A crashed run's statistics are
//! necessarily partial: the dead processes take their counters with
//! them. Other fault actions (drop/dup/delay/corrupt) are rejected at
//! plan installation — they are exercised on the DES and threads
//! backends, and wire corruption is already covered end-to-end by the
//! frame CRC. Fault occurrence counters are per-process here, so scope
//! rules with `src=` when exact occurrence windows matter.
//!
//! ## State return
//!
//! Handlers mutate memory owned by a *child*; the parent's copies are
//! untouched (copy-on-write). After a clean drain each child harvests
//! every object it owns ([`crate::Chare::harvest_state`]), and the parent
//! applies the bytes in PE order ([`crate::Chare::merge_state`]) — so
//! `Runtime::object` reads
//! the post-run state just as on the shared-memory backends, provided the
//! chare implements the pair. Children write no files: what outlives a
//! run, checkpoints included, is written by the parent from the harvested
//! state.

use crate::fault::{FaultAction, FaultPlan, FaultState};
use crate::msg::{EntryId, ObjId, Payload, Pe, Priority};
use crate::pe::{Letter, Meter, Queued, WallClock};
use crate::runtime::{RunStall, Runtime, RuntimeCore};
use crate::sched::SchedulePolicy;
use crate::wire::{read_frame, write_frame, Dec, Enc, WireCodec, WireError, WireMsg};
use std::collections::BinaryHeap;
use std::io::Write as _;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtOrd};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Minimal libc surface. The build has no `libc` crate; these five calls
// are all the process management the backend needs.
extern "C" {
    fn fork() -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn getpid() -> i32;
    fn _exit(code: i32) -> !;
}

const WNOHANG: i32 = 1;
const SIGKILL: i32 = 9;

/// `WIFSIGNALED` without libc: low 7 bits are the terminating signal and
/// the value is neither "exited" (0) nor "stopped" (0x7f).
fn term_signal(status: i32) -> Option<i32> {
    let sig = status & 0x7f;
    if sig != 0 && sig != 0x7f {
        Some(sig)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Frame tags. Control frames flow on the per-child socketpair; peer
// frames on the mesh streams. One tag byte, then a tag-specific body.
const TAG_GO: u8 = 0;
const TAG_PROBE: u8 = 1;
const TAG_DRAIN: u8 = 2;
const TAG_READY: u8 = 3;
const TAG_STATUS: u8 = 4;
const TAG_STOPPED: u8 = 5;
const TAG_KILLED: u8 = 6;
const TAG_RESULTS: u8 = 7;
const TAG_MSG: u8 = 8;
const TAG_FLUSH: u8 = 9;
const TAG_HELLO: u8 = 10;

/// State shared between a child's scheduler, its peer readers, and its
/// control reader.
struct ChildShared {
    heap: Mutex<BinaryHeap<Queued>>,
    available: Condvar,
    /// The scheduler waits on `available`. Changed and read only under the
    /// heap lock, so an enqueue that sees it clear needs no notify.
    asleep: AtomicBool,
    seq: AtomicU64,
    /// Scheduler is between a dequeue and finishing that handler's sends.
    /// Set while the heap lock is held at dequeue, so `idle` can never
    /// observe "empty heap, not busy" mid-handler.
    busy: AtomicBool,
    /// Parent ordered a drain (quiescence or stop).
    drain: AtomicBool,
    /// `FlushMark` received from this peer (self slot starts true).
    flush_seen: Vec<AtomicBool>,
    /// Cross-process message frames written to / read from peers.
    sent_x: AtomicU64,
    recv_x: AtomicU64,
    /// Handler executions completed.
    executed: AtomicU64,
    policy: SchedulePolicy,
}

impl ChildShared {
    fn enqueue(&self, msg: Letter) {
        let seq = self.seq.fetch_add(1, AtOrd::SeqCst);
        let mut heap = self.heap.lock().unwrap();
        heap.push(Queued::new(&self.policy, seq, msg, None));
        if self.asleep.load(AtOrd::Relaxed) {
            self.available.notify_all();
        }
    }

    fn idle(&self) -> bool {
        let heap = self.heap.lock().unwrap();
        heap.is_empty() && !self.busy.load(AtOrd::SeqCst)
    }
}

/// One child's `Results` body: what it measured, and the harvested state
/// of every object it owns.
type WorkerResults = (Meter, Vec<(ObjId, Payload)>);

fn decode_results(bytes: &[u8]) -> Result<WorkerResults, WireError> {
    let mut d = Dec::new(bytes);
    let meter = Meter::unpack(&d.bytes("meter")?)?;
    let n_harvest = d.u64("n_harvest")? as usize;
    // Bound the allocation by what the frame can actually hold.
    let mut harvests = Vec::with_capacity(n_harvest.min(d.remaining() / 8));
    for _ in 0..n_harvest {
        harvests.push((ObjId(d.u32("h_obj")?), d.bytes("h_state")?));
    }
    if d.remaining() != 0 {
        return Err(WireError(format!("{} trailing bytes in Results", d.remaining())));
    }
    Ok((meter, harvests))
}

/// Events the parent's per-child control readers feed into its main loop.
enum Event {
    Ready(Pe),
    Status { pe: Pe, round: u64, idle: bool, sent: u64, recv: u64, executed: u64 },
    Stopped(Pe),
    Killed { dst: Pe },
    Results(Pe, Vec<u8>),
    /// Control stream closed or errored before `Results` arrived.
    Gone(Pe),
}

/// Multi-process [`Runtime`] backend. See the module docs.
pub struct ProcRuntime {
    core: RuntimeCore,
    /// Bootstrap messages queued by `inject` until the next run.
    injected: Vec<Letter>,
    /// Where the per-PE listener sockets live. Unix socket paths are
    /// limited to ~107 bytes, so this defaults to a short directory under
    /// the system temp dir, unique per runtime.
    socket_dir: PathBuf,
    /// No-progress window after which the run is declared stalled and the
    /// children felled. Generous: real processes start slowly.
    stall_timeout: Duration,
}

/// Distinguishes concurrently-constructed runtimes in one parent process.
static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

impl ProcRuntime {
    /// Create a runtime that will fork `n_pes` worker processes per run.
    pub fn new(n_pes: usize) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "namd-proc-{}-{}",
            unsafe { getpid() },
            DIR_COUNTER.fetch_add(1, AtOrd::SeqCst)
        ));
        ProcRuntime {
            core: RuntimeCore::new(n_pes),
            injected: Vec::new(),
            socket_dir: dir,
            stall_timeout: Duration::from_millis(2000),
        }
    }

    /// Override where the per-PE listener sockets are created. Keep it
    /// short: Unix socket paths are limited to ~107 bytes.
    pub fn set_socket_dir(&mut self, dir: PathBuf) {
        self.socket_dir = dir;
    }

    /// Shrink the no-progress watchdog window (tests; default 2 s).
    pub fn set_stall_timeout(&mut self, timeout: Duration) {
        self.stall_timeout = timeout;
    }

    fn sock_path(&self, pe: Pe) -> PathBuf {
        self.socket_dir.join(format!("pe{pe}.sock"))
    }

    // -----------------------------------------------------------------
    // Parent side.

    fn parent_loop(&mut self, ctrls: Vec<UnixStream>, pids: Vec<i32>) -> Result<f64, RunStall> {
        let n = self.core.n_pes;
        let (tx, rx) = mpsc::channel::<Event>();
        let mut writers: Vec<UnixStream> = Vec::with_capacity(n);
        let mut reader_handles = Vec::with_capacity(n);
        for (pe, ctrl) in ctrls.into_iter().enumerate() {
            let reader = ctrl.try_clone().expect("ctrl clone failed");
            writers.push(ctrl);
            let tx = tx.clone();
            reader_handles.push(std::thread::spawn(move || parent_reader(pe, reader, tx)));
        }
        drop(tx);

        let mut ready = vec![false; n];
        let mut results: Vec<Option<WorkerResults>> = (0..n).map(|_| None).collect();
        let mut reaped = vec![false; n];
        let mut run_killed = 0u64;
        let mut run_dropped = 0u64;
        let mut crashed: Option<Pe> = None;
        let mut drain_sent = false;
        // Double-poll state: the probe round in flight, this round's
        // statuses, and the last complete round for the stability check.
        let mut round: u64 = 0;
        let mut cur: Vec<Option<(bool, u64, u64, u64)>> = vec![None; n];
        let mut prev_round: Option<Vec<(bool, u64, u64, u64)>> = None;
        let mut last_progress = Instant::now();
        let mut last_executed_sum = 0u64;
        let epoch = Instant::now();

        fn send_all(writers: &mut [UnixStream], body: &[u8]) {
            for w in writers.iter_mut() {
                let _ = write_frame(w, body);
            }
        }

        loop {
            // Reap any dead children; a death before Results is a crash.
            for p in 0..n {
                if reaped[p] {
                    continue;
                }
                let mut status = 0i32;
                let r = unsafe { waitpid(pids[p], &mut status, WNOHANG) };
                if r == pids[p] {
                    reaped[p] = true;
                    if term_signal(status).is_some() && results[p].is_none() {
                        crashed.get_or_insert(p);
                    }
                }
            }
            if let Some(first_dead) = crashed {
                // Fell the survivors: without the dead PE quiescence is
                // unreachable, and the recovery layer restarts from a
                // checkpoint anyway.
                for p in 0..n {
                    if !reaped[p] {
                        unsafe { kill(pids[p], SIGKILL) };
                    }
                }
                finish_run(&mut reaped, &pids, &mut reader_handles);
                self.core.crashed = self.core.crashed.or(Some(first_dead));
                self.core.meter.stats.pes_killed += run_killed.max(1);
                self.core.meter.stats.msgs_dropped += run_dropped;
                return Err(RunStall {
                    makespan: epoch.elapsed().as_secs_f64(),
                    in_flight: 1,
                    undelivered: 0,
                });
            }

            match rx.recv_timeout(Duration::from_millis(2)) {
                Ok(Event::Ready(pe)) => {
                    ready[pe] = true;
                    if ready.iter().all(|&r| r) {
                        // Everyone's mesh is up: release the herd with the
                        // pid map, then start probing.
                        let mut e = Enc::new();
                        e.u8(TAG_GO);
                        for &pid in &pids {
                            e.i32(pid);
                        }
                        send_all(&mut writers, &e.0);
                        last_progress = Instant::now();
                        round = 1;
                        send_all(&mut writers, &probe_frame(round));
                    }
                }
                Ok(Event::Status { pe, round: r, idle, sent, recv, executed }) => {
                    if r == round {
                        cur[pe] = Some((idle, sent, recv, executed));
                    }
                    if !drain_sent && cur.iter().all(|s| s.is_some()) {
                        let snapshot: Vec<_> = cur.iter().map(|s| s.unwrap()).collect();
                        let executed_sum: u64 = snapshot.iter().map(|s| s.3).sum();
                        if executed_sum != last_executed_sum {
                            last_executed_sum = executed_sum;
                            last_progress = Instant::now();
                        }
                        let all_idle = snapshot.iter().all(|s| s.0);
                        let sent_sum: u64 = snapshot.iter().map(|s| s.1).sum();
                        let recv_sum: u64 = snapshot.iter().map(|s| s.2).sum();
                        let stable = prev_round.as_deref() == Some(&snapshot[..]);
                        if all_idle && sent_sum == recv_sum && stable {
                            drain_sent = true;
                            send_all(&mut writers, &[TAG_DRAIN]);
                        } else {
                            prev_round = Some(snapshot);
                            cur.iter_mut().for_each(|s| *s = None);
                            round += 1;
                            std::thread::sleep(Duration::from_millis(1));
                            send_all(&mut writers, &probe_frame(round));
                        }
                    }
                }
                Ok(Event::Stopped(_pe)) => {
                    if !drain_sent {
                        drain_sent = true;
                        send_all(&mut writers, &[TAG_DRAIN]);
                    }
                }
                Ok(Event::Killed { dst }) => {
                    run_killed += 1;
                    run_dropped += 1;
                    crashed.get_or_insert(dst);
                }
                Ok(Event::Results(pe, bytes)) => {
                    match decode_results(&bytes) {
                        Ok(r) => results[pe] = Some(r),
                        Err(e) => panic!("malformed Results frame from PE {pe}: {e}"),
                    }
                    if results.iter().all(|r| r.is_some()) {
                        finish_run(&mut reaped, &pids, &mut reader_handles);
                        let makespan = self
                            .merge_results(results.into_iter().map(Option::unwrap).collect());
                        return Ok(makespan);
                    }
                }
                Ok(Event::Gone(pe)) => {
                    if results[pe].is_none() {
                        crashed.get_or_insert(pe);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    if let Some(first) = results.iter().position(|r| r.is_none()) {
                        crashed.get_or_insert(first);
                    }
                }
            }

            if last_progress.elapsed() >= self.stall_timeout {
                for p in 0..n {
                    if !reaped[p] {
                        unsafe { kill(pids[p], SIGKILL) };
                    }
                }
                finish_run(&mut reaped, &pids, &mut reader_handles);
                self.core.meter.stats.pes_killed += run_killed;
                self.core.meter.stats.msgs_dropped += run_dropped;
                self.core.crashed = self.core.crashed.or(crashed);
                return Err(RunStall {
                    makespan: epoch.elapsed().as_secs_f64(),
                    in_flight: 0,
                    undelivered: 0,
                });
            }
        }
    }

    /// Fold the children's `Results`, in PE order, into the runtime's
    /// instrumentation and per-object harvested state.
    fn merge_results(&mut self, results: Vec<WorkerResults>) -> f64 {
        let mut makespan = 0.0f64;
        for (meter, harvests) in results {
            makespan = makespan.max(meter.last_end);
            self.core.meter.absorb(meter);
            for (obj, bytes) in harvests {
                self.core.objects[obj.idx()]
                    .as_deref_mut()
                    .expect("harvest for unregistered object")
                    .merge_state(&bytes)
                    .unwrap_or_else(|e| panic!("merge_state failed for {obj:?}: {e}"));
            }
        }
        makespan
    }

    // -----------------------------------------------------------------
    // Child side.

    /// Everything one worker process does, from mesh setup to `Results`.
    /// The caller `_exit`s when this returns (or panics).
    fn child_main(
        &mut self,
        pe: Pe,
        listener: UnixListener,
        ctrl: UnixStream,
        bootstrap: Vec<Letter>,
    ) {
        // Build the peer mesh: connect downward, accept upward.
        let n_pes = self.core.n_pes;
        let mut peers: Vec<Option<UnixStream>> = (0..n_pes).map(|_| None).collect();
        for q in 0..pe {
            let mut s = UnixStream::connect(self.sock_path(q))
                .unwrap_or_else(|e| panic!("PE {pe}: connect to {q} failed: {e}"));
            let mut hello = Enc::new();
            hello.u8(TAG_HELLO);
            hello.u32(pe as u32);
            write_frame(&mut s, &hello.0).expect("hello write failed");
            peers[q] = Some(s);
        }
        for _ in pe + 1..n_pes {
            let (mut s, _) = listener.accept().expect("accept failed");
            let body = read_frame(&mut s)
                .expect("hello read failed")
                .expect("peer closed before hello");
            let mut d = Dec::new(&body);
            assert_eq!(d.u8("tag").unwrap(), TAG_HELLO, "expected Hello");
            let q = d.u32("peer").unwrap() as usize;
            peers[q] = Some(s);
        }
        drop(listener);

        let mut ctrl_write = ctrl.try_clone().expect("ctrl clone failed");
        let mut ctrl_read = ctrl;
        write_frame(&mut ctrl_write, &[TAG_READY]).expect("ready write failed");

        // Block until Go: the pid map. Bootstrap messages were inherited.
        let go = read_frame(&mut ctrl_read)
            .expect("go read failed")
            .expect("parent closed before go");
        let mut d = Dec::new(&go);
        assert_eq!(d.u8("tag").unwrap(), TAG_GO, "expected Go");
        let pids: Vec<i32> = (0..n_pes).map(|_| d.i32("pid").unwrap()).collect();

        let shared = ChildShared {
            heap: Mutex::new(BinaryHeap::new()),
            available: Condvar::new(),
            asleep: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            busy: AtomicBool::new(false),
            drain: AtomicBool::new(false),
            flush_seen: (0..n_pes).map(|q| AtomicBool::new(q == pe)).collect(),
            sent_x: AtomicU64::new(0),
            recv_x: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            policy: self.core.policy,
        };
        for m in bootstrap {
            shared.enqueue(m);
        }

        let ctrl_mutex = Mutex::new(ctrl_write);
        std::thread::scope(|scope| {
            // Peer readers: decode frames into the scheduler heap.
            for (q, stream) in peers.iter().enumerate() {
                let Some(stream) = stream.as_ref() else { continue };
                let mut rd = stream.try_clone().expect("peer clone failed");
                let shared = &shared;
                scope.spawn(move || loop {
                    match read_frame(&mut rd) {
                        Ok(Some(body)) => match body.first().copied() {
                            Some(TAG_MSG) => {
                                let m = WireMsg::unpack(&body[1..]).expect("bad wire msg");
                                shared.recv_x.fetch_add(1, AtOrd::SeqCst);
                                shared.enqueue(Letter {
                                    to: m.to,
                                    entry: m.entry,
                                    bytes: m.bytes as usize,
                                    priority: m.priority,
                                    payload: m.payload,
                                    path: m.path,
                                });
                            }
                            Some(TAG_FLUSH) => {
                                shared.flush_seen[q].store(true, AtOrd::SeqCst);
                                return;
                            }
                            t => panic!("unexpected peer frame tag {t:?}"),
                        },
                        // Peer death (or torn stream): no more can arrive.
                        Ok(None) | Err(_) => {
                            shared.flush_seen[q].store(true, AtOrd::SeqCst);
                            return;
                        }
                    }
                });
            }
            // Control reader: answer probes, latch the drain flag.
            {
                let shared = &shared;
                let ctrl_mutex = &ctrl_mutex;
                scope.spawn(move || loop {
                    match read_frame(&mut ctrl_read) {
                        Ok(Some(body)) => match body.first().copied() {
                            Some(TAG_PROBE) => {
                                let mut d = Dec::new(&body[1..]);
                                let round = d.u64("round").unwrap_or(0);
                                let mut e = Enc::new();
                                e.u8(TAG_STATUS);
                                e.u64(round);
                                e.u8(shared.idle() as u8);
                                e.u64(shared.sent_x.load(AtOrd::SeqCst));
                                e.u64(shared.recv_x.load(AtOrd::SeqCst));
                                e.u64(shared.executed.load(AtOrd::SeqCst));
                                let mut w = ctrl_mutex.lock().unwrap();
                                if write_frame(&mut *w, &e.0).is_err() {
                                    return;
                                }
                            }
                            Some(TAG_DRAIN) => {
                                shared.drain.store(true, AtOrd::SeqCst);
                                let _guard = shared.heap.lock().unwrap();
                                shared.available.notify_all();
                                return;
                            }
                            t => panic!("unexpected control frame tag {t:?}"),
                        },
                        Ok(None) | Err(_) => return,
                    }
                });
            }
            // The scheduler runs on this (main) thread.
            self.child_scheduler(pe, &shared, &mut peers, &pids, &ctrl_mutex);
        });
    }

    /// The child's per-PE scheduler: pop, execute, route sends; on drain,
    /// flush the mesh and ship `Results`.
    fn child_scheduler(
        &mut self,
        pe: Pe,
        shared: &ChildShared,
        peers: &mut [Option<UnixStream>],
        pids: &[i32],
        ctrl: &Mutex<UnixStream>,
    ) {
        let n_pes = self.core.n_pes;
        let clock = WallClock::start();
        let mut meter = self.core.meter.fresh();
        let mut stopped = false;

        loop {
            // Dequeue the next message, or learn we must drain. `busy` is
            // raised under the heap lock so the probe responder can never
            // see "empty and not busy" while a handler is pending.
            let msg = {
                let mut heap = shared.heap.lock().unwrap();
                loop {
                    if shared.drain.load(AtOrd::SeqCst) {
                        meter.stats.msgs_discarded += heap.len() as u64;
                        heap.clear();
                        break None;
                    }
                    if !stopped {
                        if let Some(m) = heap.pop() {
                            shared.busy.store(true, AtOrd::SeqCst);
                            break Some(m);
                        }
                    }
                    shared.asleep.store(true, AtOrd::Relaxed);
                    let (guard, _) =
                        shared.available.wait_timeout(heap, Duration::from_millis(50)).unwrap();
                    heap = guard;
                    shared.asleep.store(false, AtOrd::Relaxed);
                }
            };
            let Some(msg) = msg else { break };

            let obj = self.core.objects[msg.msg.to.idx()]
                .as_deref_mut()
                .expect("message routed to a process that does not own the object");
            let (mut ctx, end_path) = meter.run_handler(&clock, pe, n_pes, obj, msg.msg);
            shared.executed.fetch_add(1, AtOrd::SeqCst);

            for s in ctx.sends.drain(..) {
                meter.sent(&s);
                let dst = self.core.obj_pe[s.to.idx()];
                let fate = self.core.fault.as_mut().and_then(|f| f.decide(s.entry, pe, dst));
                if matches!(fate, Some(FaultAction::Kill)) {
                    // A real process death: SIGKILL the destination; the
                    // message dies with it. Tell the parent which PE we
                    // felled *first*, so the crash is attributed even if
                    // the waitpid race is lost (the Killed frame is
                    // already buffered when we kill — even ourselves).
                    let mut e = Enc::new();
                    e.u8(TAG_KILLED);
                    e.u32(dst as u32);
                    {
                        let mut w = ctrl.lock().unwrap();
                        let _ = write_frame(&mut *w, &e.0);
                    }
                    unsafe { kill(pids[dst], SIGKILL) };
                    continue;
                }
                if dst == pe {
                    shared.enqueue(Letter::from_send(s, end_path));
                } else {
                    let m = WireMsg {
                        to: s.to,
                        entry: s.entry,
                        src: pe,
                        dst,
                        priority: s.priority,
                        bytes: s.bytes as u64,
                        path: end_path,
                        payload: s.payload,
                    };
                    let mut body = Vec::with_capacity(64 + m.payload.len());
                    body.push(TAG_MSG);
                    body.extend_from_slice(&m.pack());
                    shared.sent_x.fetch_add(1, AtOrd::SeqCst);
                    let stream = peers[dst].as_mut().expect("no stream to peer");
                    if write_frame(stream, &body).is_err() {
                        // Peer died mid-send (a kill rule fired): this
                        // process can make no further progress.
                        unsafe { _exit(3) }
                    }
                }
            }
            shared.busy.store(false, AtOrd::SeqCst);
            if ctx.stop && !stopped {
                stopped = true;
                let mut w = ctrl.lock().unwrap();
                let _ = write_frame(&mut *w, &[TAG_STOPPED]);
            }
        }

        // Drain: mark every outgoing stream, then wait until every peer's
        // mark has arrived — stream FIFO order guarantees no message from
        // that peer can still be in flight behind its mark.
        for stream in peers.iter_mut().flatten() {
            let _ = write_frame(stream, &[TAG_FLUSH]);
        }
        while !shared.flush_seen.iter().all(|f| f.load(AtOrd::SeqCst)) {
            std::thread::sleep(Duration::from_millis(1));
        }
        {
            let mut heap = shared.heap.lock().unwrap();
            meter.stats.msgs_discarded += heap.len() as u64;
            heap.clear();
        }

        // Ship measurements and harvested state back to the parent.
        let mut e = Enc::new();
        e.u8(TAG_RESULTS);
        e.bytes(&meter.pack());
        let mut harvests: Vec<(u32, Payload)> = Vec::new();
        for (idx, slot) in self.core.objects.iter().enumerate() {
            if self.core.obj_pe[idx] != pe {
                continue;
            }
            if let Some(obj) = slot.as_deref() {
                let state = obj.harvest_state();
                if !state.is_empty() {
                    harvests.push((idx as u32, state));
                }
            }
        }
        e.u64(harvests.len() as u64);
        for (o, st) in &harvests {
            e.u32(*o);
            e.bytes(st);
        }
        let mut w = ctrl.lock().unwrap();
        let _ = write_frame(&mut *w, &e.0);
    }
}

/// Reap every child and join the parent's reader threads at end of run.
fn finish_run(reaped: &mut [bool], pids: &[i32], handles: &mut Vec<std::thread::JoinHandle<()>>) {
    for (p, &pid) in pids.iter().enumerate() {
        if !reaped[p] {
            let mut status = 0i32;
            unsafe { waitpid(pid, &mut status, 0) };
            reaped[p] = true;
        }
    }
    for h in handles.drain(..) {
        let _ = h.join();
    }
}

fn probe_frame(round: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(TAG_PROBE);
    e.u64(round);
    e.0
}

/// Parent-side per-child control reader: turns frames into [`Event`]s.
fn parent_reader(pe: Pe, mut stream: UnixStream, tx: mpsc::Sender<Event>) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some(body)) => {
                let event = match body.first().copied() {
                    Some(TAG_READY) => Event::Ready(pe),
                    Some(TAG_STATUS) => {
                        let mut d = Dec::new(&body[1..]);
                        Event::Status {
                            pe,
                            round: d.u64("round").unwrap_or(0),
                            idle: d.u8("idle").unwrap_or(0) != 0,
                            sent: d.u64("sent").unwrap_or(0),
                            recv: d.u64("recv").unwrap_or(0),
                            executed: d.u64("executed").unwrap_or(0),
                        }
                    }
                    Some(TAG_STOPPED) => Event::Stopped(pe),
                    Some(TAG_KILLED) => {
                        let mut d = Dec::new(&body[1..]);
                        Event::Killed { dst: d.u32("dst").unwrap_or(0) as usize }
                    }
                    Some(TAG_RESULTS) => Event::Results(pe, body[1..].to_vec()),
                    t => panic!("unexpected child frame tag {t:?}"),
                };
                if tx.send(event).is_err() {
                    return;
                }
            }
            Ok(None) | Err(_) => {
                let _ = tx.send(Event::Gone(pe));
                return;
            }
        }
    }
}

impl Runtime for ProcRuntime {
    fn core(&self) -> &RuntimeCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut RuntimeCore {
        &mut self.core
    }

    /// Only [`FaultAction::Kill`] rules are supported on this backend (see
    /// the module docs); panics on other actions as well as on a rule
    /// naming an unregistered entry method.
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            plan.rules.iter().all(|r| r.action == FaultAction::Kill),
            "the proc backend supports kill fault rules only"
        );
        self.core.fault = Some(
            FaultState::install(plan, &self.core.meter.stats.entry_names).expect("bad fault plan"),
        );
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

    /// Run to quiescence (or `Ctx::stop`) on real worker processes.
    /// Returns the makespan: the latest handler end time in wall seconds
    /// from a child epoch. A wedged or crashed run is returned as
    /// [`RunStall`] (check [`Runtime::crashed`] to tell a real process
    /// death from a stall). Unlike the shared-memory backends, a crashed
    /// run loses the children's in-memory state — recover from a
    /// checkpoint, not by redelivery.
    fn try_run(&mut self) -> Result<f64, RunStall> {
        if self.injected.is_empty() {
            return Ok(0.0);
        }
        let n_pes = self.core.n_pes;
        std::fs::create_dir_all(&self.socket_dir)
            .unwrap_or_else(|e| panic!("cannot create socket dir {:?}: {e}", self.socket_dir));

        // Bind every listener and build every control pair *before* the
        // first fork: children connect to already-bound sockets (the
        // backlog holds early connects) and inherit their own pair end.
        let listeners: Vec<UnixListener> = (0..n_pes)
            .map(|p| {
                let path = self.sock_path(p);
                let _ = std::fs::remove_file(&path);
                UnixListener::bind(&path).unwrap_or_else(|e| panic!("cannot bind {path:?}: {e}"))
            })
            .collect();
        let mut pairs: Vec<Option<(UnixStream, UnixStream)>> = (0..n_pes)
            .map(|_| Some(UnixStream::pair().expect("socketpair failed")))
            .collect();

        // Route bootstrap messages to their destination PE; each child
        // inherits its slice through fork and enqueues it there.
        let mut bootstrap: Vec<Vec<Letter>> = (0..n_pes).map(|_| Vec::new()).collect();
        self.core.meter.stats.msgs_injected += self.injected.len() as u64;
        for msg in self.injected.drain(..) {
            bootstrap[self.core.obj_pe[msg.to.idx()]].push(msg);
        }

        // Flush inherited stdio buffers so children don't replay them.
        let _ = std::io::stdout().flush();
        let _ = std::io::stderr().flush();

        let mut pids: Vec<i32> = Vec::with_capacity(n_pes);
        for p in 0..n_pes {
            let pid = unsafe { fork() };
            assert!(pid >= 0, "fork failed");
            if pid == 0 {
                // Child: shed every inherited stream that is not ours,
                // then never return — even on panic — so the parent's
                // test harness or CLI is never re-entered from here.
                let my_ctrl = pairs[p].take().map(|(_parent, child)| child).unwrap();
                drop(pairs);
                let my_boot = std::mem::take(&mut bootstrap[p]);
                drop(bootstrap);
                let my_listener = listeners.into_iter().nth(p).unwrap();
                let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.child_main(p, my_listener, my_ctrl, my_boot)
                }))
                .is_ok();
                let _ = std::io::stderr().flush();
                unsafe { _exit(if ok { 0 } else { 101 }) }
            }
            pids.push(pid);
        }
        // Parent: close the children's pair ends and the listeners.
        drop(listeners);
        let ctrls: Vec<UnixStream> = pairs.into_iter().map(|pair| pair.unwrap().0).collect();
        let outcome = self.parent_loop(ctrls, pids);
        for p in 0..n_pes {
            let _ = std::fs::remove_file(self.sock_path(p));
        }
        outcome
    }

    /// Nothing to re-send: the only fault this backend injects is a PE's
    /// death, and that is not repaired by redelivery.
    fn redeliver_dead_letters(&mut self) -> usize {
        0
    }

    fn set_pe_speeds(&mut self, _speeds: Vec<f64>) {}
}

impl Drop for ProcRuntime {
    fn drop(&mut self) {
        // Best-effort cleanup of the socket directory.
        let _ = std::fs::remove_dir_all(&self.socket_dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{PRIO_HIGH, PRIO_LOW, PRIO_NORMAL};
    use crate::{Chare, Ctx};

    /// Counts hits in its own state; forwards `hops` more times along
    /// `next`. State crosses back to the parent via harvest/merge.
    struct Hopper {
        next: Option<ObjId>,
        entry: EntryId,
        hops: u32,
        hits: u32,
    }

    impl Chare for Hopper {
        fn receive(&mut self, _e: EntryId, _p: Payload, ctx: &mut Ctx) {
            self.hits += 1;
            if self.hops > 0 {
                self.hops -= 1;
                if let Some(next) = self.next {
                    ctx.signal(next, self.entry, PRIO_NORMAL);
                }
            }
        }

        fn harvest_state(&self) -> Payload {
            let mut e = Enc::new();
            e.u32(self.hits);
            e.into_bytes()
        }

        fn merge_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
            let mut d = Dec::new(bytes);
            self.hits += d.u32("hits")?;
            Ok(())
        }
    }

    fn hopper_ring(n_pes: usize, n: usize, hops: u32) -> (ProcRuntime, EntryId) {
        let mut rt = ProcRuntime::new(n_pes);
        let e = rt.register_entry("hop");
        for i in 0..n {
            rt.register(
                Box::new(Hopper {
                    next: Some(ObjId(((i + 1) % n) as u32)),
                    entry: e,
                    hops,
                    hits: 0,
                }),
                i % n_pes,
                true,
            );
        }
        (rt, e)
    }

    #[test]
    fn ring_hops_across_real_processes() {
        let (mut rt, e) = hopper_ring(3, 3, 5);
        rt.inject(ObjId(0), e, 0, PRIO_NORMAL, Vec::new());
        let t = rt.run();
        // Bootstrap + each node forwards until its hop budget drains.
        assert_eq!(rt.stats().entry_count[e.idx()], 16);
        assert_eq!(rt.stats().msgs_received, 16);
        assert_eq!(rt.stats().conservation_residual(), 0);
        assert!(t > 0.0);
        // Harvested per-object state made it back: total hits = handler
        // executions.
        let hits: u32 = (0..3)
            .map(|i| {
                // No downcast needed: re-harvest the parent-side state.
                let state = rt.object(ObjId(i)).harvest_state();
                let mut d = Dec::new(&state);
                d.u32("hits").unwrap()
            })
            .sum();
        assert_eq!(hits, 16);
    }

    #[test]
    fn payload_bytes_cross_the_process_boundary() {
        /// Sends its configured bytes to a peer on another PE.
        struct Sender {
            to: ObjId,
            entry: EntryId,
        }
        impl Chare for Sender {
            fn receive(&mut self, _e: EntryId, _p: Payload, ctx: &mut Ctx) {
                ctx.send(self.to, self.entry, 64, PRIO_NORMAL, vec![0xAB, 0xCD, 0xEF]);
            }
        }
        /// Stores the last payload it received; harvests it verbatim.
        #[derive(Default)]
        struct Sink {
            got: Payload,
        }
        impl Chare for Sink {
            fn receive(&mut self, _e: EntryId, p: Payload, _ctx: &mut Ctx) {
                self.got = p;
            }
            fn harvest_state(&self) -> Payload {
                self.got.clone()
            }
            fn merge_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
                self.got = bytes.to_vec();
                Ok(())
            }
        }

        let mut rt = ProcRuntime::new(2);
        let e = rt.register_entry("bytes");
        let sink = rt.register(Box::new(Sink::default()), 1, true);
        let sender = rt.register(Box::new(Sender { to: sink, entry: e }), 0, true);
        rt.inject(sender, e, 0, PRIO_NORMAL, Vec::new());
        rt.run();
        // The exact bytes sent in the child on PE 0 are now readable on
        // the parent's copy of the sink, via harvest → wire → merge.
        assert_eq!(rt.object(sink).harvest_state(), vec![0xAB, 0xCD, 0xEF]);
        assert_eq!(rt.stats().entry_count[e.idx()], 2);
        // Wire accounting counted the packed payload bytes.
        assert_eq!(rt.stats().entry_wire_msgs[e.idx()], 1);
        assert_eq!(rt.stats().entry_wire_bytes[e.idx()], 3);
    }

    #[test]
    fn stop_discards_queued_work_exactly() {
        struct Stopper;
        impl Chare for Stopper {
            fn receive(&mut self, _e: EntryId, _p: Payload, ctx: &mut Ctx) {
                ctx.stop();
            }
        }
        let mut rt = ProcRuntime::new(1);
        let e = rt.register_entry("s");
        let o = rt.register(Box::new(Stopper), 0, true);
        let n = rt.register(
            Box::new(Hopper { next: None, entry: e, hops: 0, hits: 0 }),
            0,
            true,
        );
        rt.inject(o, e, 0, PRIO_HIGH, Vec::new());
        rt.inject(n, e, 0, PRIO_LOW, Vec::new());
        rt.run();
        assert_eq!(rt.stats().entry_count[e.idx()], 1);
        assert_eq!(rt.stats().msgs_discarded, 1);
        assert_eq!(rt.stats().conservation_residual(), 0);
    }

    #[test]
    fn kill_fault_fells_a_real_process() {
        let mut rt = ProcRuntime::new(2);
        rt.set_stall_timeout(Duration::from_millis(3000));
        let e = rt.register_entry("hop");
        let a = rt.register(
            Box::new(Hopper { next: Some(ObjId(1)), entry: e, hops: 1, hits: 0 }),
            0,
            true,
        );
        rt.register(Box::new(Hopper { next: None, entry: e, hops: 0, hits: 0 }), 1, true);
        // The first hop into PE 1 SIGKILLs that worker process for real.
        rt.set_fault_plan(FaultPlan::parse("kill:entry=hop:dst=1").unwrap());
        rt.inject(a, e, 0, PRIO_NORMAL, Vec::new());
        let err = rt.try_run().expect_err("a killed process must end the run");
        assert!(err.makespan >= 0.0);
        assert_eq!(rt.crashed(), Some(1));
        assert_eq!(rt.stats().pes_killed, 1);
    }

    #[test]
    fn non_kill_fault_rules_are_rejected() {
        let mut rt = ProcRuntime::new(1);
        rt.register_entry("hop");
        let plan = FaultPlan::parse("drop:entry=hop").unwrap();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.set_fault_plan(plan);
        }))
        .is_err());
    }
}
