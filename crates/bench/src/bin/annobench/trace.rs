//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! The program under test carries no span instrumentation yet (ROADMAP:
//! "stage-attributed write pipeline"), so every span here is opened and
//! closed by benchmark code around a public call: a protocol round trip,
//! an `Engine::execute_typed`, a `Dataset::enqueue`+`flush`, a direct
//! library call. Spans are kept in memory and written out once, at exit.
//! With tracing off `span` is a single branch, so the untraced pass pays
//! nothing measurable for sharing its code with the traced one.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Identifier of a recorded span (its index); `NO_SPAN` when tracing is off.
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: SpanId,
    /// The request the span belongs to: step, round or cycle number.
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer for another thread sharing this one's clock origin; fold
    /// it back in with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Record one finished span. Callers already hold both instants (they
    /// are the latency samples), so a span costs one push.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line: id, name, start, end, parent, op.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            );
            if s.parent == NO_SPAN {
                line.push_str("null");
            } else {
                let _ = write!(line, "{}", s.parent);
            }
            let _ = writeln!(line, ",\"op\":{}}}", s.op);
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_forks_rebase() {
        let mut off = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(off.span("x", NO_SPAN, 0, now, now), NO_SPAN);
        assert_eq!(off.len(), 0);

        let mut main = Tracer::new(true);
        main.span("a", NO_SPAN, 0, now, now);
        let mut side = main.fork();
        let p = side.span("b", NO_SPAN, 1, now, now);
        side.span("c", p, 1, now, now);
        main.absorb(side);
        assert_eq!(main.len(), 3);
        assert_eq!(main.spans[2].parent, 1);
    }
}
