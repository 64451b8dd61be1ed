//! The benchmark's own spans: each wraps one public call of the library, so
//! the traced run can attribute wall time to layers without instrumenting
//! the program itself. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder with a stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals over every span of that name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let id = self.open.pop().expect("exit without a matching enter");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a leaf span; returns its value and the span's ns.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }

    /// Count, total and self time per span name. A span's self time is its
    /// duration minus the time its children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(children);
        }
        out
    }

    /// Spans entered but not yet exited.
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.enter("outer");
        let (_, inner) = t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer = t.exit();
        let totals = t.totals();
        assert_eq!(totals["outer"].count, 1);
        assert_eq!(totals["outer"].total_ns, outer);
        assert_eq!(totals["outer"].self_ns, outer - inner);
        assert_eq!(totals["inner"].self_ns, inner);
        assert_eq!(t.open_spans(), 0);
    }
}
