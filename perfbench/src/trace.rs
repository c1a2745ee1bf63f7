//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, start, end, parent and request id. Spans of one
//! request nest by call order: `begin` makes the innermost open span
//! the parent. When a request finishes, each span's self time (its
//! duration minus the part its children cover) is folded into per-name
//! totals, and the first [`DUMP_CAP`] spans are kept for the dump
//! written at the end of the run. Everything stays in memory until then.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use crate::metrics::{Samples, Sorted};

/// Spans kept verbatim for the dump; later ones are only aggregated.
pub const DUMP_CAP: usize = 200_000;

/// Marks a span without a parent.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are ns since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u16,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the parent within the same request, or none.
    pub parent: u32,
    /// Request id.
    pub req: u64,
}

/// Per-name totals.
#[derive(Debug, Default)]
struct Agg {
    durations: Samples,
    count: u64,
    self_ns: u64,
}

/// A handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    aggs: Vec<Agg>,
    request: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
    dump: Vec<(Span, &'static str)>,
    spans: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            aggs: Vec::new(),
            request: Vec::new(),
            stack: Vec::new(),
            req: 0,
            dump: Vec::new(),
            spans: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn id(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|&n| n == name) {
            return i as u16;
        }
        self.names.push(name);
        self.aggs.push(Agg::default());
        u16::try_from(self.names.len() - 1).expect("span name table overflow")
    }

    /// Opens a span under the innermost open span of this request.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let name = self.id(name);
        let parent = self.stack.last().map_or(NO_PARENT, |&p| p as u32);
        let start = self.now();
        self.request.push(Span {
            name,
            start,
            end: start,
            parent,
            req: self.req,
        });
        let index = self.request.len() - 1;
        self.stack.push(index);
        Open(index)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: Open) {
        let end = self.now();
        assert_eq!(
            self.stack.pop(),
            Some(span.0),
            "spans must close innermost first"
        );
        self.request[span.0].end = end;
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// Ends the current request: folds its spans into the totals and
    /// starts the next request id.
    pub fn finish_request(&mut self) {
        assert!(self.stack.is_empty(), "request finished with open spans");
        let selfs = self_times(&self.request);
        for (span, self_ns) in self.request.iter().zip(selfs) {
            let agg = &mut self.aggs[span.name as usize];
            agg.durations.record(span.end - span.start);
            agg.count += 1;
            agg.self_ns += self_ns;
            if self.dump.len() < DUMP_CAP {
                self.dump.push((*span, self.names[span.name as usize]));
            }
        }
        self.spans += self.request.len() as u64;
        self.request.clear();
        self.req += 1;
    }

    /// Every span recorded so far.
    pub fn span_count(&self) -> u64 {
        self.spans
    }

    /// Moves out the durations of every finished span with one of
    /// `names`, pooled and sorted. Counts and self times stay for
    /// [`Tracer::self_table`].
    pub fn take(&mut self, names: &[&str]) -> Sorted {
        let mut pooled = Samples::default();
        for (name, agg) in self.names.iter().zip(&mut self.aggs) {
            if names.contains(name) {
                pooled.append(std::mem::take(&mut agg.durations));
            }
        }
        pooled.sorted()
    }

    /// Per-name self time, largest first: `(name, spans, self ns)`.
    pub fn self_table(&self) -> Vec<(&'static str, u64, u64)> {
        let mut rows: Vec<_> = self
            .names
            .iter()
            .zip(&self.aggs)
            .map(|(&n, a)| (n, a.count, a.self_ns))
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        rows
    }

    /// Writes the kept spans as tab-separated lines:
    /// `req name start_ns end_ns parent`.
    pub fn write_dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("req\tname\tstart_ns\tend_ns\tparent\n");
        for (s, name) in &self.dump {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(out, "{}\t{name}\t{}\t{}\t{parent}", s.req, s.start, s.end)
                .expect("writing to a String cannot fail");
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// Self time of every span of one request: its duration minus the
/// union of its children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent as usize == i)
                .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32) -> Span {
        Span {
            name: 0,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_on_a_synthetic_tree() {
        // op [0,100) with children get [10,40) and cas [50,90);
        // cas has a child [60,70) and an overlapping pair [65,80), [75,85).
        let spans = [
            span(0, 100, NO_PARENT),
            span(10, 40, 0),
            span(50, 90, 0),
            span(60, 70, 2),
            span(65, 80, 2),
            span(75, 85, 2),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 15, 10, 15, 10]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(10, 20, NO_PARENT), span(5, 15, 0), span(18, 30, 0)];
        assert_eq!(self_times(&spans), vec![3, 10, 12]);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut t = Tracer::new();
        let op = t.begin("op");
        t.time("call", || std::hint::black_box(1 + 1));
        t.time("call", || std::hint::black_box(2 + 2));
        t.end(op);
        t.finish_request();
        assert_eq!(t.span_count(), 3);
        assert_eq!(t.dump[1].0.parent, 0);
        assert_eq!(t.dump[0].0.parent, NO_PARENT);
        assert_eq!(t.take(&["call"]).len(), 2);
        assert_eq!(t.take(&["call"]).len(), 0, "samples move out once");
        assert_eq!(t.take(&["op", "missing"]).len(), 1);
        let rows = t.self_table();
        assert_eq!(rows.len(), 2);
        let (op_spans, call_spans) = if rows[0].0 == "op" {
            (rows[0].1, rows[1].1)
        } else {
            (rows[1].1, rows[0].1)
        };
        assert_eq!((op_spans, call_spans), (1, 2));
    }
}
