//! What a profiled run writes out (§4.1).
//!
//! The runtime measures: `charmrt::SummaryStats` holds the per-entry and
//! per-PE summary profile of a phase and `charmrt::Trace` its full event
//! log, both filled by the one meter every backend shares. This crate
//! keeps only what a run writes out from them:
//!
//! * **[`ChromeTraceWriter`]** — Chrome trace-event JSON that loads
//!   directly into Perfetto or `chrome://tracing`, one track per PE, one
//!   category per chare family, with instant markers for phase boundaries,
//!   load-balancing decisions and Berendsen barriers.
//! * **[`PhaseMetrics`]** — a phase's counters as one value: pair-list
//!   cache activity, the message ledger, the critical path and wire
//!   traffic.
//! * **[`LbAudit`]** — one record per load-balancer decision: predicted
//!   per-PE loads before and after, and the exact migration list.
//! * **[`MetricsRegistry`]** — the single object the engine threads
//!   through a run. It keeps a [`PhaseProfile`] per phase and the LB
//!   audits and, when given a directory, streams trace files,
//!   `phases.jsonl` and `lb_audit.jsonl` to disk. Whether a phase records
//!   a trace is the registry's call ([`MetricsRegistry::wants_trace`]).

use charmrt::{Pe, SummaryStats, Trace};
use std::collections::BTreeSet;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Entry-method → category mapping
// ---------------------------------------------------------------------------

/// Map an entry-method name to a trace category (Perfetto colors tracks by
/// category, so each chare family gets a stable hue).
pub fn entry_category(name: &str) -> &'static str {
    if name.starts_with("Nonbonded") {
        "nonbonded"
    } else if name.starts_with("Bonded") {
        "bonded"
    } else if name.starts_with("Pme") {
        "pme"
    } else if name.starts_with("Barrier") {
        "barrier"
    } else if name.starts_with("Proxy") {
        "proxy"
    } else if name.starts_with("Patch") || name == "Integrate" {
        "patch"
    } else if name == "ComputeReady" || name == "Done" {
        "control"
    } else {
        "other"
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A writer of the Chrome trace-event format (JSON array of one-line event
/// objects), loadable in Perfetto and `chrome://tracing`.
///
/// * each PE becomes a named track (`tid` = PE, `thread_name` metadata);
/// * spans are `ph:"X"` complete events with `ts`/`dur` in microseconds;
/// * markers are `ph:"i"` global instants.
///
/// Events stream one per line with a trailing comma; [`finish`] closes the
/// array so the output is strict JSON, but both viewers also accept a
/// truncated file (e.g. from a crashed run) — the format is
/// self-synchronizing per line.
///
/// [`finish`]: ChromeTraceWriter::finish
pub struct ChromeTraceWriter<W: Write> {
    out: W,
    seen_pes: BTreeSet<Pe>,
}

impl<W: Write> ChromeTraceWriter<W> {
    /// Start a trace stream: writes the array header and a process-name
    /// metadata record (`label` names the backend in the viewer).
    pub fn new(mut out: W, label: &str) -> io::Result<Self> {
        writeln!(out, "[")?;
        writeln!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{{\"name\":\"{}\"}}}},",
            json_escape(label)
        )?;
        Ok(ChromeTraceWriter { out, seen_pes: BTreeSet::new() })
    }

    fn declare_pe(&mut self, pe: Pe) -> io::Result<()> {
        if self.seen_pes.insert(pe) {
            writeln!(
                self.out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{pe},\
                 \"args\":{{\"name\":\"PE {pe}\"}}}},",
            )?;
        }
        Ok(())
    }

    /// Close the JSON array, making the output strict JSON, and return the
    /// underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        writeln!(self.out, "{{}}]")?;
        self.out.flush()?;
        Ok(self.out)
    }

    /// One entry-method execution: `dur` seconds starting at `start`
    /// (virtual seconds on the DES, wall seconds on threads).
    pub fn span(
        &mut self,
        pe: Pe,
        obj: u32,
        name: &str,
        cat: &str,
        start: f64,
        dur: f64,
    ) -> io::Result<()> {
        self.declare_pe(pe)?;
        writeln!(
            self.out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{pe},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"obj\":{obj}}}}},",
            json_escape(name),
            json_escape(cat),
            start * 1e6,
            dur * 1e6,
        )
    }

    /// A zero-duration marker (phase boundary, LB decision, barrier).
    pub fn instant(&mut self, name: &str, t: f64) -> io::Result<()> {
        writeln!(
            self.out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":{:.3}}},",
            json_escape(name),
            t * 1e6,
        )
    }
}

/// Stream a recorded [`Trace`] into a writer: every event becomes a span
/// (named and categorized via `entry_names`), and Berendsen-barrier
/// releases (`BarrierResume` broadcasts) become deduplicated instant markers.
pub fn write_trace<W: Write>(
    w: &mut ChromeTraceWriter<W>,
    trace: &Trace,
    entry_names: &[String],
) -> io::Result<()> {
    let mut barrier_marks: Vec<f64> = Vec::new();
    for ev in &trace.events {
        let name = entry_names.get(ev.entry.idx()).map(String::as_str).unwrap_or("?");
        w.span(ev.pe, ev.obj.0, name, entry_category(name), ev.start, ev.duration())?;
        if name == "BarrierResume" {
            barrier_marks.push(ev.start);
        }
    }
    // One marker per barrier, not per resumed patch: the broadcast fans
    // out to every patch, so collapse starts that round to the same tick.
    barrier_marks.sort_by(|a, b| a.partial_cmp(b).unwrap());
    barrier_marks.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    for t in barrier_marks {
        w.instant("Berendsen barrier", t)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Consolidated per-phase counters
// ---------------------------------------------------------------------------

/// Pair-list cache counters for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairlistCounters {
    /// Candidate-list (re)builds.
    pub builds: u64,
    /// Steps served from a still-valid cached list.
    pub hits: u64,
}

impl PairlistCounters {
    /// Total cached-kernel executions (builds + hits).
    pub fn executions(&self) -> u64 {
        self.builds + self.hits
    }
}

/// The message-conservation ledger for one phase, copied out of
/// [`SummaryStats`] so a phase's bookkeeping travels as one value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageCounters {
    pub sent: u64,
    pub received: u64,
    pub injected: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub delayed: u64,
    pub redelivered: u64,
    pub discarded: u64,
    pub pes_killed: u64,
}

impl From<&SummaryStats> for MessageCounters {
    fn from(s: &SummaryStats) -> Self {
        MessageCounters {
            sent: s.msgs_sent,
            received: s.msgs_received,
            injected: s.msgs_injected,
            dropped: s.msgs_dropped,
            duplicated: s.msgs_duplicated,
            delayed: s.msgs_delayed,
            redelivered: s.msgs_redelivered,
            discarded: s.msgs_discarded,
            pes_killed: s.pes_killed,
        }
    }
}

/// Every per-phase counter in one place: pair-list cache activity, the
/// message ledger, the critical path and wire traffic. Returned from the
/// engine's `PhaseResult::metrics`, the one per-phase counter surface (the
/// scattered per-field shims it replaced are gone).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseMetrics {
    pub pairlist: PairlistCounters,
    pub messages: MessageCounters,
    /// Longest dependency chain through the phase's message graph, seconds.
    pub critical_path: f64,
    /// Messages that carried a non-empty packed payload (all backends share
    /// the wire format; on the `proc` backend these are the bytes that
    /// actually crossed the socket mesh).
    pub wire_msgs: u64,
    /// Total packed payload bytes across those messages.
    pub wire_bytes: u64,
}

impl PhaseMetrics {
    /// A phase's metrics from its runtime summary and the pair-list cache
    /// activity over the phase.
    pub fn of(stats: &SummaryStats, pairlist: PairlistCounters) -> Self {
        PhaseMetrics {
            pairlist,
            messages: MessageCounters::from(stats),
            critical_path: stats.critical_path,
            wire_msgs: stats.wire_msgs(),
            wire_bytes: stats.wire_bytes(),
        }
    }
}

// ---------------------------------------------------------------------------
// Load-balancer audit log
// ---------------------------------------------------------------------------

/// One compute moved by a load-balancing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Engine compute index.
    pub compute: usize,
    pub from: Pe,
    pub to: Pe,
}

/// The audit record of one load-balancer decision: which strategy ran,
/// the per-PE loads it saw, the per-PE loads its assignment predicts,
/// and exactly which computes it moved.
#[derive(Debug, Clone, PartialEq)]
pub struct LbAudit {
    /// Index of the measurement phase whose loads the decision consumed.
    pub phase: usize,
    /// Strategy name (`"greedy"`, `"refine"`, …).
    pub strategy: String,
    /// Predicted per-PE load under the pre-decision placement, seconds.
    pub before: Vec<f64>,
    /// Predicted per-PE load under the new assignment, seconds.
    pub after: Vec<f64>,
    pub migrations: Vec<Migration>,
}

impl LbAudit {
    fn max(loads: &[f64]) -> f64 {
        loads.iter().copied().fold(0.0, f64::max)
    }

    fn avg(loads: &[f64]) -> f64 {
        if loads.is_empty() {
            0.0
        } else {
            loads.iter().sum::<f64>() / loads.len() as f64
        }
    }

    /// Predicted max/avg imbalance ratio before the decision.
    pub fn imbalance_before(&self) -> f64 {
        Self::max(&self.before) / Self::avg(&self.before).max(1e-30)
    }

    /// Predicted max/avg imbalance ratio after the decision.
    pub fn imbalance_after(&self) -> f64 {
        Self::max(&self.after) / Self::avg(&self.after).max(1e-30)
    }

    /// One-line JSON record (for `lb_audit.jsonl`).
    pub fn to_json_line(&self) -> String {
        let vec_json = |v: &[f64]| {
            let items: Vec<String> = v.iter().map(|x| format!("{x:.9e}")).collect();
            format!("[{}]", items.join(","))
        };
        let migs: Vec<String> = self
            .migrations
            .iter()
            .map(|m| format!("{{\"compute\":{},\"from\":{},\"to\":{}}}", m.compute, m.from, m.to))
            .collect();
        format!(
            "{{\"phase\":{},\"strategy\":\"{}\",\"before\":{},\"after\":{},\"migrations\":[{}]}}",
            self.phase,
            json_escape(&self.strategy),
            vec_json(&self.before),
            vec_json(&self.after),
            migs.join(","),
        )
    }

    pub fn render(&self) -> String {
        format!(
            "LB[{}] after phase {}: moved {} compute(s), predicted max/avg \
             {:.3} -> {:.3}",
            self.strategy,
            self.phase,
            self.migrations.len(),
            self.imbalance_before(),
            self.imbalance_after(),
        )
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// A phase as retained by the [`MetricsRegistry`].
#[derive(Debug, Clone)]
pub struct PhaseProfile {
    pub index: usize,
    /// Backend label (`"des"` / `"threads"`).
    pub backend: String,
    pub n_steps: usize,
    /// Phase span (makespan), seconds.
    pub span: f64,
    pub metrics: PhaseMetrics,
}

/// The one observability object a run carries. Hand it to the engine
/// (`Engine::set_metrics`) and every phase records a [`PhaseProfile`] and
/// every load-balancer decision an [`LbAudit`]. With a directory attached
/// it also streams, per captured phase, a Perfetto-loadable
/// `trace_phase{N}_{backend}.json`, and appends `phases.jsonl` /
/// `lb_audit.jsonl` summary records. Off by default: a run without a
/// registry does no extra work beyond a few `Option` checks.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    dir: Option<PathBuf>,
    /// Capture a trace file every `interval`-th phase (1 = every phase).
    interval: usize,
    /// LB decisions since the last recorded phase, surfaced as instant
    /// markers at the start of the next phase's trace.
    pending_lb: Vec<String>,
    pub phases: Vec<PhaseProfile>,
    pub lb_audits: Vec<LbAudit>,
}

impl MetricsRegistry {
    /// A registry that only accumulates in memory (no files).
    pub fn in_memory() -> Self {
        MetricsRegistry { interval: 1, ..Default::default() }
    }

    /// A registry that also streams trace files and JSONL reports into
    /// `dir` (created if missing). `interval` captures a full trace every
    /// N-th phase; summaries are written for every phase regardless.
    pub fn with_dir(dir: impl Into<PathBuf>, interval: usize) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(MetricsRegistry {
            dir: Some(dir),
            interval: interval.max(1),
            ..Default::default()
        })
    }

    /// The output directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Whether the upcoming phase records a trace: every `interval`-th
    /// phase, counting from the first. A run records a trace exactly when
    /// its registry wants one.
    pub fn wants_trace(&self) -> bool {
        self.phases.len().is_multiple_of(self.interval.max(1))
    }

    fn append_line(&self, file: &str, line: &str) -> io::Result<()> {
        if let Some(dir) = &self.dir {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(file))?;
            writeln!(f, "{line}")?;
        }
        Ok(())
    }

    /// Record one completed phase. `span` is the phase makespan; `trace`
    /// should be present whenever [`wants_trace`] was true before the
    /// phase ran. Returns any I/O error from streaming to the directory
    /// (in-memory accounting always succeeds).
    ///
    /// [`wants_trace`]: MetricsRegistry::wants_trace
    pub fn record_phase(
        &mut self,
        backend: &str,
        stats: &SummaryStats,
        trace: Option<&Trace>,
        span: f64,
        n_steps: usize,
        metrics: PhaseMetrics,
    ) -> io::Result<()> {
        let index = self.phases.len();
        let captured = trace.is_some() && self.wants_trace();
        let mut io_result = Ok(());
        if captured && self.dir.is_some() {
            io_result = self.write_trace_file(index, backend, stats, trace.unwrap(), span);
        }
        // The `phases.jsonl` line, built only when there is a file to write
        // it to.
        if self.dir.is_some() {
            // Per-entry packed-bytes breakdown: only entries that moved payload
            // bytes, in registration order.
            let wire_by_entry: Vec<String> = stats
                .entry_names
                .names()
                .iter()
                .enumerate()
                .filter(|&(e, _)| stats.entry_wire_bytes.get(e).is_some_and(|&b| b > 0))
                .map(|(e, name)| {
                    format!(
                        "\"{}\":{{\"msgs\":{},\"bytes\":{}}}",
                        json_escape(name),
                        stats.entry_wire_msgs[e],
                        stats.entry_wire_bytes[e]
                    )
                })
                .collect();
            let avg_utilization = if stats.pe_busy.is_empty() || span <= 0.0 {
                0.0
            } else {
                stats.pe_busy.iter().map(|b| b / span).sum::<f64>() / stats.pe_busy.len() as f64
            };
            let summary = format!(
                "{{\"phase\":{index},\"backend\":\"{}\",\"steps\":{n_steps},\"span\":{span:.9e},\
                 \"critical_path\":{:.9e},\"avg_utilization\":{:.6},\"pairlist_builds\":{},\
                 \"pairlist_hits\":{},\"msg_residual\":{},\
                 \"wire_msgs\":{},\"wire_bytes\":{},\"wire_by_entry\":{{{}}}}}",
                json_escape(backend),
                metrics.critical_path,
                avg_utilization,
                metrics.pairlist.builds,
                metrics.pairlist.hits,
                stats.conservation_residual(),
                metrics.wire_msgs,
                metrics.wire_bytes,
                wire_by_entry.join(","),
            );
            io_result = io_result.and(self.append_line("phases.jsonl", &summary));
        }

        self.pending_lb.clear();
        self.phases.push(PhaseProfile {
            index,
            backend: backend.to_string(),
            n_steps,
            span,
            metrics,
        });
        io_result
    }

    fn write_trace_file(
        &self,
        index: usize,
        backend: &str,
        stats: &SummaryStats,
        trace: &Trace,
        span: f64,
    ) -> io::Result<()> {
        let dir = self.dir.as_ref().expect("caller checked dir");
        let path = dir.join(format!("trace_phase{index:03}_{backend}.json"));
        let file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut w = ChromeTraceWriter::new(file, &format!("{backend} phase {index}"))?;
        let t0 = stats.window_start;
        w.instant(&format!("phase {index} begin"), t0)?;
        for lb in &self.pending_lb {
            w.instant(lb, t0)?;
        }
        write_trace(&mut w, trace, &stats.entry_names)?;
        w.instant(&format!("phase {index} end"), t0 + span)?;
        w.finish()?;
        Ok(())
    }

    /// Record one load-balancer decision.
    pub fn record_lb(&mut self, audit: LbAudit) -> io::Result<()> {
        let r = self.append_line("lb_audit.jsonl", &audit.to_json_line());
        self.pending_lb.push(audit.render());
        self.lb_audits.push(audit);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charmrt::{EntryId, ObjId, TraceEvent};

    fn sample_trace() -> (Trace, Vec<String>) {
        let mut t = Trace::default();
        let mut ev = |pe, obj, entry, start: f64, end: f64| {
            t.events.push(TraceEvent {
                pe,
                obj: ObjId(obj),
                entry: EntryId(entry),
                start,
                end,
                wall: 0.0,
            });
        };
        ev(0, 1, 0, 0.000010, 0.000030);
        ev(1, 2, 1, 0.000015, 0.000040);
        ev(0, 1, 1, 0.000030, 0.000055);
        let names = vec!["NonbondedPair".to_string(), "Integrate".to_string()];
        (t, names)
    }

    #[test]
    fn categories_cover_the_chare_families() {
        assert_eq!(entry_category("NonbondedSelf"), "nonbonded");
        assert_eq!(entry_category("NonbondedPair"), "nonbonded");
        assert_eq!(entry_category("BondedIntra"), "bonded");
        assert_eq!(entry_category("PmeSlabFft"), "pme");
        assert_eq!(entry_category("BarrierReady"), "barrier");
        assert_eq!(entry_category("ProxyRecvCoords"), "proxy");
        assert_eq!(entry_category("PatchStart"), "patch");
        assert_eq!(entry_category("Integrate"), "patch");
        assert_eq!(entry_category("Done"), "control");
        assert_eq!(entry_category("Mystery"), "other");
    }

    #[test]
    fn chrome_writer_matches_golden_output() {
        let (t, names) = sample_trace();
        let mut w = ChromeTraceWriter::new(Vec::new(), "des").unwrap();
        w.instant("phase 0 begin", 0.0).unwrap();
        write_trace(&mut w, &t, &names).unwrap();
        let buf = w.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let golden = "\
[
{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"des\"}},
{\"name\":\"phase 0 begin\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":0.000},
{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"PE 0\"}},
{\"name\":\"NonbondedPair\",\"cat\":\"nonbonded\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":10.000,\"dur\":20.000,\"args\":{\"obj\":1}},
{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"PE 1\"}},
{\"name\":\"Integrate\",\"cat\":\"patch\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":15.000,\"dur\":25.000,\"args\":{\"obj\":2}},
{\"name\":\"Integrate\",\"cat\":\"patch\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":30.000,\"dur\":25.000,\"args\":{\"obj\":1}},
{}]
";
        assert_eq!(text, golden);
    }

    #[test]
    fn chrome_writer_output_is_strict_json_shape() {
        let (t, names) = sample_trace();
        let mut w = ChromeTraceWriter::new(Vec::new(), "x").unwrap();
        write_trace(&mut w, &t, &names).unwrap();
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "[");
        assert_eq!(lines[lines.len() - 1], "{}]");
        for line in &lines[1..lines.len() - 1] {
            assert!(line.starts_with('{') && line.ends_with("},"), "bad line: {line}");
            // Balanced braces on every line — each event is self-contained.
            let open = line.matches('{').count();
            let close = line.matches('}').count();
            assert_eq!(open, close, "unbalanced: {line}");
        }
    }

    #[test]
    fn lb_audit_renders_and_serializes() {
        let a = LbAudit {
            phase: 0,
            strategy: "greedy".into(),
            before: vec![3.0, 1.0],
            after: vec![2.0, 2.0],
            migrations: vec![Migration { compute: 7, from: 0, to: 1 }],
        };
        assert!((a.imbalance_before() - 1.5).abs() < 1e-12);
        assert!((a.imbalance_after() - 1.0).abs() < 1e-12);
        let line = a.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"strategy\":\"greedy\""));
        assert!(line.contains("\"compute\":7"));
        assert!(a.render().contains("moved 1 compute(s)"));
    }

    #[test]
    fn registry_accumulates_phases_and_audits_in_memory() {
        let (t, names) = sample_trace();
        let mut stats = SummaryStats::default();
        for n in &names {
            stats.entry_names.register(n);
        }
        stats.pe_busy = vec![4.5e-5, 2.5e-5];
        stats.critical_path = 4.0e-5;
        let mut reg = MetricsRegistry::in_memory();
        assert!(reg.wants_trace());
        let metrics = PhaseMetrics {
            pairlist: PairlistCounters { builds: 2, hits: 4 },
            critical_path: stats.critical_path,
            ..Default::default()
        };
        reg.record_phase("des", &stats, Some(&t), 6.0e-5, 1, metrics).unwrap();
        reg.record_lb(LbAudit {
            phase: 0,
            strategy: "refine".into(),
            before: vec![1.0, 2.0],
            after: vec![1.5, 1.5],
            migrations: vec![],
        })
        .unwrap();
        assert_eq!(reg.phases.len(), 1);
        assert_eq!(reg.lb_audits.len(), 1);
        let p = &reg.phases[0];
        assert_eq!(p.backend, "des");
        assert_eq!(p.metrics.pairlist.executions(), 6);
    }

    #[test]
    fn registry_interval_gates_trace_capture() {
        let dir = std::env::temp_dir().join(format!("profile-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (t, names) = sample_trace();
        let mut stats = SummaryStats::default();
        for n in &names {
            stats.entry_names.register(n);
        }
        stats.pe_busy = vec![1e-5, 1e-5];
        stats.entry_wire_msgs = vec![4, 0];
        stats.entry_wire_bytes = vec![4096, 0];
        let mut reg = MetricsRegistry::with_dir(&dir, 2).unwrap();
        for i in 0..3 {
            assert_eq!(reg.wants_trace(), i % 2 == 0);
            let tr = if reg.wants_trace() { Some(&t) } else { None };
            let metrics =
                PhaseMetrics { wire_msgs: 4, wire_bytes: 4096, ..Default::default() };
            reg.record_phase("des", &stats, tr, 1e-4, 2, metrics).unwrap();
        }
        let traces: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().into_string().unwrap())
            .filter(|n| n.starts_with("trace_phase"))
            .collect();
        assert_eq!(traces.len(), 2, "{traces:?}"); // phases 0 and 2
        let summary = std::fs::read_to_string(dir.join("phases.jsonl")).unwrap();
        assert_eq!(summary.lines().count(), 3);
        assert!(summary.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        // Packed-payload accounting reaches the summaries, per entry.
        assert!(summary.contains("\"wire_msgs\":4"), "{summary}");
        assert!(summary.contains("\"wire_bytes\":4096"), "{summary}");
        let first_entry = stats.entry_names.names()[0].clone();
        assert!(
            summary.contains(&format!("\"{first_entry}\":{{\"msgs\":4,\"bytes\":4096}}")),
            "{summary}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
