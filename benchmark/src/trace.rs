//! Harness-side spans: name, start, end, parent. Recorded from the
//! benchmark's own files around each call into a layer, kept in memory,
//! written out with the result at exit. An untraced run uses a disabled
//! tracer, which records nothing.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Microseconds since the tracer's epoch.
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span called `name`, nested under the span that is
    /// open now. Returns `f`'s result and the span's duration in ms (the
    /// duration is measured even when the tracer is disabled, so callers
    /// have one code path).
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start_us = self.now_us();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_us,
                end_us: start_us,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end_us = self.now_us();
        if let Some(id) = id {
            self.spans[id].end_us = end_us;
            self.stack.pop();
        }
        (out, (end_us - start_us) / 1000.0)
    }

    /// Record a span whose start and end were observed elsewhere (a job
    /// that overlaps others on the generator thread), under the open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
            parent: self.stack.last().copied(),
        });
    }

    /// Durations (ms) of every span with this name, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }
}

/// A span's self time: its duration minus the part of it its direct
/// children cover (children of one parent never overlap on the harness
/// thread, so their durations add).
pub fn self_time_ms(spans: &[Span], id: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::ms)
        .sum();
    spans[id].ms() - children
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("cycle", 0.0, 10_000.0, None),
            span("phase", 1_000.0, 7_000.0, Some(0)),
            span("kernel", 2_000.0, 5_000.0, Some(1)),
            span("migrate", 7_500.0, 9_500.0, Some(0)),
        ];
        assert_eq!(self_time_ms(&spans, 0), 10.0 - 6.0 - 2.0);
        assert_eq!(self_time_ms(&spans, 1), 6.0 - 3.0);
        assert_eq!(self_time_ms(&spans, 2), 3.0);
        // Children plus self time give the parent back.
        let children: f64 = [1, 3].iter().map(|&i| spans[i].ms()).sum();
        assert_eq!(children + self_time_ms(&spans, 0), spans[0].ms());
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let ((), outer_ms) = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.spans[0].ms() >= t.spans[1].ms());
        assert!(outer_ms >= 2.0);
        assert!(self_time_ms(&t.spans, 0) >= 0.0);
        assert_eq!(t.durations_ms("inner").len(), 1);

        let mut off = Tracer::new(false);
        let (v, ms) = off.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(off.spans.is_empty());
    }
}
