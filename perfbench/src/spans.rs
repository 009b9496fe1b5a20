//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! the simulator: a name, a start and end offset from the recorder's
//! origin, and the index of the enclosing span. They stay in memory until
//! the run ends and are then written out as JSON lines.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran, e.g. `cmp.warm`.
    pub name: &'static str,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// End, in ns since the recorder's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

/// The span recorder. A disabled recorder keeps nothing, so the untraced
/// run pays only a branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Offset of `t` from the origin, in ns.
    fn offset(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting at `start`; close it with [`close`](Self::close).
    /// Returns `None` when disabled.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.offset(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Ends span `id` at `end`.
    pub fn close(&mut self, id: Option<usize>, end: Instant) {
        if let Some(i) = id {
            let end_ns = self.offset(end);
            if let Some(s) = self.spans.get_mut(i) {
                s.end_ns = end_ns;
            }
        }
    }

    /// Records a finished span from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let id = self.open(name, parent, start);
        self.close(id, end);
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if let Some(c) = children.get_mut(p) {
                    c.push((s.start_ns, s.end_ns));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach).min(s.end_ns);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.end_ns.saturating_sub(s.start_ns) - covered
            })
            .collect()
    }

    /// Writes every span as one JSON object per line: index, name,
    /// start and end in ns since the origin, parent index (or null) and
    /// self time.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {self_ns}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
impl Tracer {
    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `i` in ns.
    pub fn duration(&self, i: usize) -> u64 {
        self.spans
            .get(i)
            .map_or(0, |s| s.end_ns.saturating_sub(s.start_ns))
    }

    /// Indices of span `root` and every span below it.
    pub fn subtree(&self, root: usize) -> Vec<usize> {
        let mut inside = vec![false; self.spans.len()];
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let under = i == root || s.parent.is_some_and(|p| p < i && inside[p]);
            if under {
                inside[i] = true;
                out.push(i);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_overlaps_once() {
        let mut t = Tracer::new(true);
        let o = t.origin;
        let at = |ns: u64| o + Duration::from_nanos(ns);
        let root = t.open("root", None, at(0));
        t.record("a", root, at(10), at(40));
        t.record("b", root, at(30), at(60));
        t.close(root, at(100));
        let st = t.self_times();
        assert_eq!(st, vec![50, 30, 30]);
        assert_eq!(t.subtree(0), vec![0, 1, 2]);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        let id = t.open("x", None, now);
        t.close(id, now);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }
}
