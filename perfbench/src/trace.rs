//! Spans around the benchmark's own calls into the system. Each thread
//! keeps its spans in memory; the run merges them at the end, derives
//! each layer's self time and writes every span out.

use crate::report::{pct, sorted, Pct};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The run clock: nanoseconds since `origin`, the process start.
pub fn now_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// One timed call: `parent` is 0 for a root span, `req` names the request
/// (or operation) the call served.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread's span buffer; records nothing when tracing is off.
pub struct Tracer {
    pub on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    pub fn record(&mut self, span: Span) {
        if self.on {
            self.spans.push(span);
        }
    }
}

/// Span ids of request `req`: the root and up to three child calls.
pub fn span_id(req: u64, child: u64) -> u64 {
    req * 4 + child + 1
}

/// Per-name totals over a span set.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    pub count: usize,
    pub total_us: f64,
    /// Duration minus the time covered by the span's children.
    pub self_us: f64,
    /// Median duration of one span.
    pub dur_p50_us: Pct,
}

/// Each span name's count, total time, self time and median duration.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, SelfTime)> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut by_name: HashMap<&'static str, (Vec<f64>, f64)> = HashMap::new();
    for s in spans {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.dur_ns() as f64 / 1e3);
        e.1 += own as f64 / 1e3;
    }
    let mut out: Vec<_> = by_name
        .into_iter()
        .map(|(name, (durs, self_us))| {
            let durs = sorted(durs);
            (
                name,
                SelfTime {
                    count: durs.len(),
                    total_us: durs.iter().sum(),
                    self_us,
                    dur_p50_us: pct(&durs, 0.5),
                },
            )
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(b.0));
    out
}

/// Write every span as a tab-separated line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, 0, "request", 0, 10_000),
            span(2, 1, "send", 1_000, 3_000),
            span(3, 1, "recv", 8_000, 9_000),
            span(5, 0, "request", 0, 20_000),
        ];
        let st = self_times(&spans);
        let req = &st.iter().find(|(n, _)| *n == "request").unwrap().1;
        assert_eq!(req.count, 2);
        assert!((req.total_us - 30.0).abs() < 1e-9);
        assert!((req.self_us - 27.0).abs() < 1e-9);
        let send = &st.iter().find(|(n, _)| *n == "send").unwrap().1;
        assert!((send.self_us - 2.0).abs() < 1e-9);
    }

    #[test]
    fn tracer_off_keeps_nothing() {
        let mut t = Tracer::new(false);
        t.record(span(1, 0, "x", 0, 1));
        assert!(t.spans.is_empty());
    }
}
