//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the engine's
//! public functions; nothing inside the program is instrumented. A span's
//! self time is its duration minus the part of it that its child spans
//! cover. Spans stay in memory until [`Tracer::write`] at the end of the
//! run, so recording costs two clock reads and a push.

use charles_server::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `partition.cart`.
    pub name: &'static str,
    /// The operation this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: usize,
    /// Sum of their durations, in nanoseconds.
    pub total_ns: u64,
    /// Sum of their self times, in nanoseconds.
    pub self_ns: u64,
}

impl Totals {
    /// Self time in milliseconds.
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// Records nested spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open span; returns its id.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// Write every span as one JSON document.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        assert!(self.open.is_empty(), "trace written with open spans");
        let self_times = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(self_times)
            .map(|(s, self_ns)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("op", Json::Num(s.op as f64)),
                    ("parent", s.parent.map_or(Json::Null, Json::num_usize)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::obj([("spans", Json::Arr(spans))]).encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tracer = Tracer {
            epoch: Instant::now(),
            // root [0, 100) with children [10, 30) and [20, 50) overlapping,
            // and [60, 70); the grandchild does not count against the root.
            spans: vec![
                span("root", None, 0, 100),
                span("a", Some(0), 10, 30),
                span("b", Some(0), 20, 50),
                span("c", Some(0), 60, 70),
                span("d", Some(3), 61, 69),
            ],
            open: Vec::new(),
        };
        assert_eq!(tracer.self_times(), vec![50, 20, 30, 2, 8]);
        let totals = tracer.totals();
        assert_eq!(totals["root"].self_ns, 50);
        assert_eq!(totals["c"].total_ns, 10);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut tracer = Tracer::new();
        let outer = tracer.enter("outer", 7);
        let inner = tracer.time("inner", 7, || 42);
        assert_eq!(inner, 42);
        tracer.exit(outer);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[1].op, 7);
        assert!(tracer.spans[0].end_ns >= tracer.spans[1].end_ns);
    }
}
