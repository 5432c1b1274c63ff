//! Projections-style event tracing (§4.1, level three).
//!
//! The full trace records every entry-method execution: which object ran
//! which method on which PE, from when to when. From this we derive the
//! paper's two key visual diagnostics:
//!
//! * **grainsize histograms** (Figures 1 and 2): the distribution of task
//!   durations for a given entry method;
//! * **timelines** (Figures 3 and 4): "Upshot-style" per-PE activity bars.
//!
//! Traces can be large, so tracing is opt-in, the paper's practice of
//! tracing only short instrumented runs applies here too.

use crate::msg::{EntryId, ObjId, Pe};

/// One recorded entry-method execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    pub pe: Pe,
    pub obj: ObjId,
    pub entry: EntryId,
    /// Virtual start time, seconds.
    pub start: f64,
    /// Virtual end time, seconds.
    pub end: f64,
    /// Wall-clock start time, seconds since the Unix epoch. 0 on the DES
    /// backend (whose time axis is purely virtual); the threads backend
    /// stamps real time so externally caused stalls — checkpoint fsyncs,
    /// competing processes — line up with other system logs in timeline
    /// diagnostics. Deliberately excluded from nothing: replay-equality
    /// tests compare DES traces, where this field is constant.
    pub wall: f64,
}

impl TraceEvent {
    /// Task duration (grainsize), seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory event log with query helpers. `PartialEq` so replay tests
/// can assert two runs produced bit-identical event streams.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
}

/// A grainsize histogram: `bins[i]` counts tasks with duration in
/// `[i*bin_width, (i+1)*bin_width)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub bin_width: f64,
    pub bins: Vec<u64>,
}

impl Histogram {
    /// Largest observed duration, seconds (0 for an empty histogram).
    pub fn max_duration(&self) -> f64 {
        match self.bins.iter().rposition(|&c| c > 0) {
            Some(i) => (i + 1) as f64 * self.bin_width,
            None => 0.0,
        }
    }

    /// Total task count.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Render as a text bar chart (durations in milliseconds), mirroring the
    /// figures' presentation.
    pub fn render(&self, max_width: usize) -> String {
        let peak = self.bins.iter().copied().max().unwrap_or(0).max(1);
        // Render up to the last non-zero bin; computing it once keeps the
        // render linear in the bin count even for sparse histograms.
        let last = match self.bins.iter().rposition(|&c| c > 0) {
            Some(i) => i,
            None => return String::new(),
        };
        let mut s = String::new();
        for (i, &c) in self.bins.iter().enumerate().take(last + 1) {
            let lo_ms = i as f64 * self.bin_width * 1e3;
            let bar = "#".repeat(((c as f64 / peak as f64) * max_width as f64).round() as usize);
            s.push_str(&format!("{lo_ms:>7.1} ms | {bar} {c}\n"));
        }
        s
    }
}

impl Trace {
    /// Record an event (called by the engine).
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Clear all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Grainsize histogram over the events for the given entry methods
    /// within `[t0, t1)`, divided by `per` (e.g. the number of timesteps in
    /// the window, to get the paper's "instances during an average
    /// timestep").
    pub fn grainsize_histogram(
        &self,
        entries: &[EntryId],
        t0: f64,
        t1: f64,
        bin_width: f64,
        per: f64,
    ) -> Histogram {
        assert!(bin_width > 0.0 && per > 0.0);
        let mut bins: Vec<f64> = Vec::new();
        for ev in &self.events {
            if ev.start < t0 || ev.start >= t1 || !entries.contains(&ev.entry) {
                continue;
            }
            let b = (ev.duration() / bin_width).floor() as usize;
            if bins.len() <= b {
                bins.resize(b + 1, 0.0);
            }
            bins[b] += 1.0;
        }
        Histogram {
            bin_width,
            bins: bins.into_iter().map(|c| (c / per).round() as u64).collect(),
        }
    }

    /// Events on one PE within a window, ordered by start time.
    fn pe_events(&self, pe: Pe, t0: f64, t1: f64) -> Vec<TraceEvent> {
        let mut evs: Vec<TraceEvent> = self
            .events
            .iter()
            .filter(|e| e.pe == pe && e.end > t0 && e.start < t1)
            .copied()
            .collect();
        evs.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        evs
    }

    /// Render an Upshot-style text timeline for PEs `pes` over `[t0, t1)`,
    /// `width` characters wide. `classify` maps an entry method to a
    /// single-character glyph ('.' is reserved for idle).
    pub fn render_timeline(
        &self,
        pes: &[Pe],
        t0: f64,
        t1: f64,
        width: usize,
        classify: impl Fn(EntryId) -> char,
    ) -> String {
        assert!(t1 > t0 && width > 0);
        let dt = (t1 - t0) / width as f64;
        let mut out = String::new();
        for &pe in pes {
            let mut row = vec!['.'; width];
            for ev in self.pe_events(pe, t0, t1) {
                let c = classify(ev.entry);
                let a = (((ev.start - t0) / dt).floor().max(0.0)) as usize;
                let b = (((ev.end - t0) / dt).ceil() as usize).min(width);
                for cell in row.iter_mut().take(b).skip(a.min(width)) {
                    *cell = c;
                }
            }
            out.push_str(&format!("PE {pe:>5} |{}|\n", row.into_iter().collect::<String>()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pe: Pe, entry: u16, start: f64, end: f64) -> TraceEvent {
        TraceEvent { pe, obj: ObjId(0), entry: EntryId(entry), start, end, wall: 0.0 }
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::default();
        t.record(ev(0, 0, 0.000, 0.009)); // 9 ms
        t.record(ev(0, 0, 0.010, 0.019)); // 9 ms
        t.record(ev(1, 0, 0.000, 0.042)); // 42 ms
        t.record(ev(1, 1, 0.050, 0.060)); // other entry
        t
    }

    #[test]
    fn histogram_bins_durations() {
        let t = sample_trace();
        let h = t.grainsize_histogram(&[EntryId(0)], 0.0, 1.0, 0.002, 1.0);
        assert_eq!(h.total(), 3);
        // 9 ms tasks land in bin 4 ([8,10) ms), the 42 ms task in bin 21.
        assert_eq!(h.bins[4], 2);
        assert_eq!(h.bins[21], 1);
        assert!((h.max_duration() - 0.044).abs() < 1e-12);
    }

    #[test]
    fn histogram_respects_window_and_per() {
        let t = sample_trace();
        // Window excludes everything after 5 ms start.
        let h = t.grainsize_histogram(&[EntryId(0)], 0.0, 0.005, 0.002, 1.0);
        assert_eq!(h.total(), 2); // the two tasks starting at 0.0
        let h2 = t.grainsize_histogram(&[EntryId(0)], 0.0, 1.0, 0.002, 2.0);
        assert_eq!(h2.bins[4], 1); // divided by 2 steps
    }

    #[test]
    fn timeline_renders_glyphs_and_idle() {
        let t = sample_trace();
        let s = t.render_timeline(&[0, 1], 0.0, 0.06, 30, |e| if e.0 == 0 { 'N' } else { 'I' });
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('N'));
        assert!(lines[0].contains('.'));
        assert!(lines[1].contains('I'));
    }

    #[test]
    fn empty_histogram() {
        let t = Trace::default();
        let h = t.grainsize_histogram(&[EntryId(0)], 0.0, 1.0, 0.001, 1.0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_duration(), 0.0);
        assert_eq!(h.render(40), "");
    }

    #[test]
    fn render_large_sparse_histogram_is_linear_and_complete() {
        // A histogram with one task in bin 0 and one far out: the render
        // must cover every bin up to the last non-zero one, include both
        // counts, and not take quadratic time doing so.
        let n = 200_000;
        let mut bins = vec![0u64; n];
        bins[0] = 1;
        bins[n - 1] = 3;
        let h = Histogram { bin_width: 0.001, bins };
        let t0 = std::time::Instant::now();
        let r = h.render(10);
        assert!(t0.elapsed().as_secs_f64() < 5.0, "render took too long");
        assert_eq!(r.lines().count(), n);
        assert!(r.lines().next().unwrap().ends_with(" 1"));
        assert!(r.lines().last().unwrap().ends_with(" 3"));
        // Trailing zero bins past the last populated one are not rendered.
        let h2 = Histogram { bin_width: 0.001, bins: vec![2, 0, 0, 0] };
        assert_eq!(h2.render(10).lines().count(), 1);
    }

    #[test]
    fn render_scales_bars() {
        let t = sample_trace();
        let h = t.grainsize_histogram(&[EntryId(0)], 0.0, 1.0, 0.002, 1.0);
        let r = h.render(10);
        assert!(r.contains("##########")); // peak bin full width
        assert!(r.lines().count() >= 2);
    }
}
