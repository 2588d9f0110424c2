//! In-memory spans recorded around the benchmark's calls into each crate.
//!
//! A span has a name (`<layer>.<call>`), start and end (nanoseconds since
//! the tracer's origin), its parent span and the op it belongs to. A
//! disabled tracer records nothing, so the untraced run pays only a branch
//! per call. Self time is a span's duration minus its children's.

use std::fmt::Write as _;
use std::time::Instant;

/// The span name every workload wraps one op in.
pub const OP: &str = "core.op";

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to.
    pub op: u64,
}

/// Records spans when enabled; a pass-through when disabled.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Tags the spans opened from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Self time of every span, in span order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                self_ns[p] -= span.end_ns - span.start_ns;
            }
        }
        self_ns
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The spans as CSV: `id,name,op,parent,start_ns,end_ns,self_ns`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,name,op,parent,start_ns,end_ns,self_ns\n");
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = span.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id},{},{},{parent},{},{},{self_ns}",
                span.name, span.op, span.start_ns, span.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span(OP, |t| t.span("a.b", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        t.set_op(3);
        t.span(OP, |t| {
            t.span("a.x", |_| spin(200_000));
            t.span("b.y", |t| t.span("c.z", |_| spin(200_000)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.op == 3));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let len = |i: usize| spans[i].end_ns - spans[i].start_ns;
        let self_ns = t.self_times_ns();
        assert_eq!(self_ns[0], len(0) - len(1) - len(2));
        assert_eq!(self_ns[2], len(2) - len(3));
        assert_eq!(self_ns[3], len(3));
        assert_eq!(t.count("a.x"), 1);
        assert_eq!(t.to_csv().lines().count(), 5);
    }
}
