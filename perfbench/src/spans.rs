//! Spans the benchmark records around its own calls into each layer.
//!
//! A span is a name, a start and an end (nanoseconds since the round's
//! epoch) and the span that caused it. Each client keeps its spans in
//! memory; they are written out when the benchmark ends. With tracing off a
//! log records nothing and costs one branch per call.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, named after the per-layer metric it feeds.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start: u64,
    /// End, in nanoseconds since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
}

/// A client's span log.
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log stamping against `epoch`; records only when `on`.
    pub fn new(on: bool, epoch: Instant) -> SpanLog {
        SpanLog {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn stamp(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses the spans recorded until [`close`].
    ///
    /// [`close`]: SpanLog::close
    pub fn open(&mut self, name: &'static str) {
        if self.on {
            let start = self.stamp();
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if self.on {
            let end = self.stamp();
            let i = self.open.pop().expect("close without open");
            self.spans[i].end = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = self.stamp();
        let r = f();
        let end = self.stamp();
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
        });
        r
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Median duration in microseconds of the spans named `name`, 0 if none.
pub fn p50_us(logs: &[Vec<Span>], name: &str) -> f64 {
    let mut d: Vec<u64> = logs
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .collect();
    if d.is_empty() {
        return 0.0;
    }
    d.sort_unstable();
    crate::sample::quantile(&d, 0.5) as f64 / 1e3
}

/// Share of the `name` spans' total duration not covered by their child
/// spans: the span's self time over its duration, 0 if none.
pub fn self_frac(logs: &[Vec<Span>], name: &str) -> f64 {
    let (mut total, mut children) = (0u64, 0u64);
    for log in logs {
        for s in log.iter().filter(|s| s.name == name) {
            total += s.end - s.start;
        }
        for s in log {
            if s.parent.is_some_and(|p| log[p].name == name) {
                children += s.end - s.start;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        total.saturating_sub(children) as f64 / total as f64
    }
}

/// Writes every span as CSV (`client,id,parent,name,start_ns,end_ns`; the
/// parent is empty for a root span).
pub fn write_csv(path: &std::path::Path, logs: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "client,id,parent,name,start_ns,end_ns")?;
    for (c, log) in logs.iter().enumerate() {
        for (i, s) in log.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(out, "{c},{i},{parent},{},{},{}", s.name, s.start, s.end)?;
        }
    }
    out.flush()
}
