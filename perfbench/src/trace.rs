//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its own calls
//! into each layer's public functions; nothing inside the program under
//! test is instrumented.  Each span keeps its name, start and end, the
//! span that was open when it started (its parent) and the request it
//! belongs to.  Spans stay in memory until [`Tracer::write_jsonl`] at the
//! end of the run.  A disabled tracer records nothing, so the same code
//! path measures the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// No parent / no request.
pub const NONE: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `canon.identity`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Request (or call) identifier shared by the spans of one request.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self time: duration minus the time child spans cover.
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per span in microseconds (0 when none recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Span recorder.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder; when `enabled` is false every call is a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("close without a matching open");
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    /// Time `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, req);
        let r = f();
        self.close();
        r
    }

    /// Append `other`'s spans (re-timed to this tracer's clock).
    pub fn append(&mut self, other: &Tracer) {
        let base = self.spans.len() as u32;
        let shift = other.t0.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.extend(other.spans.iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: if s.parent == NONE {
                NONE
            } else {
                s.parent + base
            },
            ..s.clone()
        }));
    }

    /// Every closed span so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.open("outer", 1);
        t.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close();
        let tot = t.totals();
        let outer = tot["outer"];
        let inner = tot["inner"];
        assert_eq!(outer.total_ns, t.spans()[0].dur_ns());
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(t.spans()[1].parent, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.time("x", 0, || ());
        assert!(t.spans().is_empty());
    }
}
