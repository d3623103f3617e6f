//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; the library itself is not instrumented. Each span
//! has a name, start, end, parent span and work-item id. A disabled
//! tracer records nothing and reads no clock, so the untraced phase and
//! the end-to-end runs pay only a branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub item: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span handle: `None` when tracing is off.
pub type SpanId = Option<usize>;

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, item: u64) -> SpanId {
        self.open_at(name, parent, item, None)
    }

    /// Opens a span whose start is `start` (e.g. a request's due time)
    /// instead of now.
    pub fn open_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        item: u64,
        start: Option<Instant>,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = match start {
            Some(t) => t.saturating_duration_since(self.origin).as_nanos() as u64,
            None => self.now_ns(),
        };
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            item,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        item: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, item);
        let r = f();
        self.close(id);
        r
    }

    /// Appends another tracer's spans (e.g. a client thread's), keeping
    /// their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"item\":{}}}",
                s.name, s.start_ns, s.end_ns, s.item
            )?;
        }
        out.flush()
    }

    /// Self time per layer and the uncovered remainder of the root
    /// (work-item) spans.
    pub fn breakdown(&self) -> Breakdown {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut b = Breakdown::default();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            if s.parent.is_none() {
                b.items += 1;
                b.item_ns += s.dur_ns();
                b.uncovered_ns += own;
            } else {
                *b.self_ns.entry(layer_of(s.name)).or_default() += own;
            }
        }
        b
    }
}

/// The layer a span belongs to: its name up to the first dot, except
/// that the store's two layers keep their second component.
pub fn layer_of(name: &'static str) -> &'static str {
    for layer in ["store.writer", "store.query"] {
        if name.starts_with(layer) {
            return layer;
        }
    }
    name.split('.').next().unwrap_or(name)
}

#[derive(Debug, Default)]
pub struct Breakdown {
    pub items: u64,
    pub item_ns: u64,
    pub uncovered_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
}

/// Sum and count of the durations of spans named `name`, optionally
/// restricted to items for which `keep(item)` holds.
pub fn total_ns(spans: &[SpanRec], name: &str, keep: impl Fn(u64) -> bool) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s.item))
        .fold((0, 0), |(t, n), s| (t + s.dur_ns(), n + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_separates_self_time_from_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            SpanRec {
                name: "item",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                item: 0,
            },
            SpanRec {
                name: "codec.compress",
                start_ns: 10,
                end_ns: 50,
                parent: Some(0),
                item: 0,
            },
            SpanRec {
                name: "ops.dot",
                start_ns: 50,
                end_ns: 80,
                parent: Some(0),
                item: 0,
            },
        ];
        let b = t.breakdown();
        assert_eq!(b.item_ns, 100);
        assert_eq!(b.uncovered_ns, 30);
        assert_eq!(b.self_ns["codec"], 40);
        assert_eq!(b.self_ns["ops"], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("codec.compress", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
