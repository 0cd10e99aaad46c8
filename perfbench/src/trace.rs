//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span is `(name, start, end, parent, request id)`. Spans live in
//! memory, one [`Tracer`] per thread, and are written out as JSON lines
//! when the run ends. A layer's self time is its span's duration minus
//! the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::hist::Hist;

/// Span id 0 is "no parent".
pub const ROOT: u32 = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub parent: u32,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    cap: usize,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records up to `cap` spans; `enabled == false` makes
    /// every call a no-op (the untraced measurement).
    pub fn new(epoch: Instant, enabled: bool, cap: usize) -> Self {
        Tracer { epoch, enabled, cap, spans: Vec::new(), dropped: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; returns its id (1-based), or [`ROOT`] when not recorded.
    pub fn open(&mut self, parent: u32, req: u64, name: &'static str) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return ROOT;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { parent, req, name, start_ns: now, end_ns: now });
        self.spans.len() as u32
    }

    pub fn close(&mut self, id: u32) {
        if id != ROOT {
            self.spans[id as usize - 1].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time (ns) of every span, grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Hist> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Hist> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            out.entry(s.name).or_default().record(dur.saturating_sub(c));
        }
        out
    }

    /// Append every span as one JSON line tagged with `thread`.
    pub fn write_jsonl(&self, w: &mut impl Write, thread: &str) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"thread\":\"{thread}\",\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        if self.dropped > 0 {
            writeln!(w, "{{\"thread\":\"{thread}\",\"dropped_spans\":{}}}", self.dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), true, 16);
        let root = t.open(ROOT, 1, "root");
        let child = t.open(root, 1, "child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child);
        t.close(root);
        let st = t.self_times();
        assert!(st["child"].quantile(0.5) >= 1.5e6);
        assert!(st["root"].quantile(0.5) < st["child"].quantile(0.5));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false, 16);
        let id = t.open(ROOT, 1, "x");
        t.close(id);
        assert_eq!(t.len(), 0);
    }
}
