//! In-memory spans recorded by the benchmark around its calls into
//! each layer's public functions.
//!
//! Nothing inside the crates under test is instrumented: a span covers
//! exactly one call the benchmark makes. Spans are kept in memory and
//! written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `vm.verify`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request the span belongs to (see the workloads).
    pub request: u64,
    /// True for spans recorded during set-up.
    pub setup: bool,
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    setup: bool,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            setup: false,
        }
    }
}

impl Tracer {
    /// Sets the request id (and phase) of the spans that follow.
    pub fn set_request(&mut self, request: u64, setup: bool) {
        self.request = request;
        self.setup = setup;
    }

    /// Runs `f` inside a span named `name`, nested in the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
            setup: self.setup,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"setup\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.setup
            )?;
        }
        out.flush()
    }
}

/// The cost of recording one empty span, nanoseconds, measured over
/// many spans in a throwaway tracer.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let mut t = Tracer::default();
    let t0 = Instant::now();
    for _ in 0..N {
        t.span("probe", |_| ());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
}

impl LayerTime {
    /// Mean self time per call, microseconds.
    pub fn self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Totals every span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += self_ns;
        t.total_ns += s.end_ns - s.start_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
            setup: false,
        }
    }

    /// compile [0,100) holds frontend [10,40) — which holds parse
    /// [12,20) — and codegen [50,90); a second compile [200,230) has no
    /// children. Two overlapping children of codegen, [55,70) and
    /// [65,80), cover 25 ns, not 30.
    fn tree() -> Vec<Span> {
        vec![
            span("compile", 0, 100, None),
            span("frontend", 10, 40, Some(0)),
            span("parse", 12, 20, Some(1)),
            span("codegen", 50, 90, Some(0)),
            span("emit", 55, 70, Some(3)),
            span("emit", 65, 80, Some(3)),
            span("compile", 200, 230, None),
        ]
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        assert_eq!(self_times(&tree()), vec![30, 22, 8, 15, 15, 15, 30]);
    }

    #[test]
    fn totals_group_by_name() {
        let totals = by_name(&tree());
        assert_eq!(
            totals["compile"],
            LayerTime {
                calls: 2,
                self_ns: 60,
                total_ns: 130
            }
        );
        assert_eq!(totals["emit"].calls, 2);
        assert_eq!(totals["emit"].self_us(), 0.015);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::default();
        t.set_request(7, false);
        let v = t.span("outer", |t| t.span("inner", |_| 41) + 1);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!(
            (s[1].name, s[1].parent, s[1].request),
            ("inner", Some(0), 7)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let selfs = self_times(s);
        assert_eq!(selfs[0] + selfs[1], s[0].end_ns - s[0].start_ns);
    }
}
