//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic over them.
//!
//! A span has a layer, a name, start and end, the span that caused it and
//! the id of the query it belongs to (0 for set-up and replays). Nothing is
//! instrumented inside the program: spans wrap the public calls.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the call belongs to (a module name of the repository, or
    /// `bench`/`gen` for the benchmark's own work).
    pub layer: &'static str,
    /// The call within the layer.
    pub name: &'static str,
    /// Query or request id the span belongs to; 0 outside any query.
    pub query: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        query: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            layer,
            name,
            query,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while recording a span");
        spans.push(span);
        spans.len() - 1
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while recording a span")
            .clone()
    }
}

/// Records through `tracer` when there is one; the untraced runs pass
/// `None` and pay only this branch.
pub fn record(
    tracer: Option<&Tracer>,
    layer: &'static str,
    name: &'static str,
    query: u64,
    parent: Option<SpanId>,
    start: Instant,
    end: Instant,
) -> Option<SpanId> {
    tracer.map(|t| t.record(layer, name, query, parent, start, end))
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once, and a
/// child reaching outside its parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let (lo, hi) = (span.start_ns, span.end_ns.max(span.start_ns));
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(s, e)| (s.clamp(lo, hi), e.clamp(lo, hi)))
                .filter(|(s, e)| e > s)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (s, e) in clipped {
                run = match run {
                    Some((rs, re)) if s <= re => Some((rs, re.max(e))),
                    Some((rs, re)) => {
                        covered += re - rs;
                        Some((s, e))
                    }
                    None => Some((s, e)),
                };
            }
            if let Some((rs, re)) = run {
                covered += re - rs;
            }
            (hi - lo) - covered
        })
        .collect()
}

/// Span statistics the per-layer metrics are derived from.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
}

impl SpanSummary {
    /// Summarises a set of spans.
    pub fn new(spans: Vec<Span>) -> SpanSummary {
        let self_ns = self_times(&spans);
        SpanSummary { spans, self_ns }
    }

    /// Median duration in milliseconds of the spans named `layer`/`name`;
    /// 0 when there are none.
    pub fn median_ms(&self, layer: &str, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        crate::stats::median(&durations)
    }

    /// Mean self time in milliseconds that `layer` spends per query: the
    /// self time of all its spans inside queries (query id non-zero),
    /// divided by the number of distinct queries. 0 when nothing was traced.
    pub fn layer_self_ms_per_query(&self, layer: &str) -> f64 {
        let mut queries: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.query != 0)
            .map(|s| s.query)
            .collect();
        queries.sort_unstable();
        queries.dedup();
        if queries.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.query != 0 && s.layer == layer)
            .map(|(_, &ns)| ns)
            .sum();
        total as f64 / 1e6 / queries.len() as f64
    }

    /// The spans as JSON lines, after one header line.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(96 * (self.spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for (id, (span, self_ns)) in self.spans.iter().zip(&self.self_ns).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"layer\": \"{}\", \"name\": \"{}\", \"query\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                span.layer, span.name, span.query, span.start_ns, span.end_ns
            );
        }
        out
    }
}
