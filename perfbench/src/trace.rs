//! In-memory spans around the benchmark's calls into each layer, and the
//! order statistics every metric is reported with.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub req: u64,
}

/// Records spans of one thread. A disabled tracer records nothing, so the
/// same code runs traced and untraced.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub thread: &'static str,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: &'static str) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`Tracer::close`] and as a parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.unwrap_or(NO_PARENT),
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.on {
            self.spans[id].end_ns = self.now();
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Self time of every span (its duration minus its children's), in
    /// nanoseconds, grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(kids);
            out.entry(s.name).or_default().push(own as f64);
        }
        out
    }
}

/// Write every span of every tracer as one JSON object per line.
pub fn write_spans(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        for (id, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"thread\": \"{}\", \"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                t.thread, s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
    }
    out.flush()
}

/// The `q`-quantile of `xs` by linear interpolation (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median, the highest of p99/p95/p90/p75 with at least ten samples
/// beyond it, and the sample count, for the report.
pub fn summary(xs: &[f64]) -> String {
    let tail = [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|q| (1.0 - q) * xs.len() as f64 >= 10.0)
        .map(|q| format!(" p{} {:.4}", (q * 100.0) as u32, quantile(xs, q)))
        .unwrap_or_default();
    format!("p50 {:.4}{tail} n {}", median(xs), xs.len())
}
