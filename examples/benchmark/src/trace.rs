//! In-memory span recording around calls into each layer.
//!
//! A span has a name (`<layer>.<what>`, the layer being the crate whose
//! public function the span wraps), a start and end relative to the
//! tracer's origin, its parent span, and an optional request id (the
//! arrival or request index). Spans nest strictly because the benchmark is
//! single-threaded, so a span's self time is its duration minus its
//! children's durations.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `end_ns` is `u64::MAX` while the span is open.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub req: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans; every span stays in memory until [`Tracer::write_jsonl`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
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
    pub fn open(&mut self, name: &'static str, req: Option<u64>) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            req,
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
            parent,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let idx = self.open.pop().expect("close without a matching open");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, req: Option<u64>, f: impl FnOnce() -> T) -> T {
        self.open(name, req);
        let out = f();
        self.close();
        out
    }

    /// The most recently opened span.
    pub fn last(&self) -> &Span {
        self.spans.last().expect("a span was recorded")
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span to `path` as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_lines(&mut out)?;
        out.flush()
    }

    fn write_lines(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(out, ",\"parent\":{p}")?,
                None => write!(out, ",\"parent\":null")?,
            }
            match s.req {
                Some(r) => writeln!(out, ",\"req\":{r}}}")?,
                None => writeln!(out, ",\"req\":null}}")?,
            }
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children. All spans must be closed.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            req: None,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // bench.rep [0,100)
        //   compiler.compile [10,50)
        //     compiler.build_ir [12,30)
        //     compiler.lint [30,45)
        //   simrt.run_until [60,90)
        let spans = vec![
            span("bench.rep", 0, 100, None),
            span("compiler.compile", 10, 50, Some(0)),
            span("compiler.build_ir", 12, 30, Some(1)),
            span("compiler.lint", 30, 45, Some(1)),
            span("simrt.run_until", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 7, 18, 15, 30]);
        // Self times partition the root: they sum to its duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(spans[2].layer(), "compiler");
    }

    #[test]
    fn tracer_nests_spans_and_writes_them() {
        let mut tr = Tracer::new();
        tr.open("bench.rep", None);
        let x = tr.span("simrt.submit", Some(7), || 41 + 1);
        tr.close();
        assert_eq!(x, 42);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].req, Some(7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut buf = Vec::new();
        tr.write_lines(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = crate::json::Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("name").unwrap().as_str(), Some("simrt.submit"));
        assert_eq!(second.get("parent").unwrap().as_f64(), Some(0.0));
    }
}
