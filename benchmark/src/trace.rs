//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's own files, around each call into a
//! layer's public functions. They stay in memory during the run and are
//! written as JSON lines when it ends. A disabled tracer records nothing,
//! so the untraced run pays one branch per call site.

use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Identifier shared by every span of one request (or pass).
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct Open(u32);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    current: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            current: NO_PARENT,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.current,
            req,
        });
        self.current = idx;
        Open(idx)
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end;
        self.current = span.parent;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Σ over spans called `name` of (duration − the part their direct
    /// children cover), ns: the time spent in the span's own code.
    pub fn self_time_ns(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c) as f64)
            .sum()
    }

    /// Wall cost (ns) of one enter/exit pair, measured on a scratch tracer:
    /// the figure `harness.trace_overhead.share` multiplies by span count.
    pub fn calibrate_pair_ns() -> f64 {
        const PAIRS: u32 = 200_000;
        let mut t = Tracer::new(true);
        t.spans.reserve(PAIRS as usize);
        let t0 = Instant::now();
        for i in 0..PAIRS {
            let o = t.enter("calibrate", i as u64);
            t.exit(o);
        }
        let ns = t0.elapsed().as_nanos() as f64;
        std::hint::black_box(&t.spans);
        ns / PAIRS as f64
    }

    /// Writes one JSON object per span:
    /// `{"name","start_ns","end_ns","parent","req"}`; `parent` is the line
    /// index (0-based) of the enclosing span or -1.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        w.flush()
    }
}
