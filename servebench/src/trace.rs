//! In-memory span recording for the traced run.
//!
//! Each thread owns a [`Tracer`]; spans carry a name (`layer.operation`),
//! start and end, the id of the span that was open when they began (their
//! parent) and a request id shared by every span of one request. The
//! spans stay in memory until the run ends, then go out as Chrome
//! trace-event JSON (opens offline in Perfetto or `about:tracing`) and as
//! a per-operation table of count, p50 and self time, where self time is
//! a span's duration minus the part its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Unique across every tracer of the run.
    pub id: u64,
    /// The enclosing span's id, 0 for a root span.
    pub parent: u64,
    /// The request every span of one request shares.
    pub request: u64,
    /// The recording thread.
    pub tid: u32,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An open span, returned by [`Tracer::begin`] and consumed by
/// [`Tracer::end`].
#[must_use = "an open span must be ended"]
pub struct Open(usize);

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    next_id: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `tid`; every tracer of a run shares `epoch`.
    pub fn new(epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            epoch,
            tid,
            next_id: (u64::from(tid) << 40) + 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            tid: self.tid,
            start_ns,
            end_ns: start_ns,
        });
        Open(self.spans.len() - 1)
    }

    /// Closes a span; returns its duration in seconds. Spans close in the
    /// reverse order they opened.
    pub fn end(&mut self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.0];
        span.end_ns = end_ns;
        debug_assert_eq!(self.stack.last(), Some(&span.id), "spans must nest");
        self.stack.pop();
        span.dur_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a span; returns its result and duration, seconds.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, request);
        let out = f();
        let secs = self.end(open);
        (out, secs)
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: usize,
    /// Median span duration, microseconds.
    pub p50_us: f64,
    /// Total self time, milliseconds.
    pub self_ms: f64,
}

/// Aggregates spans by name, ordered by name (so rows of one layer sit
/// together).
pub fn table(spans: &[Span]) -> Vec<Row> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(span.parent).or_default() += span.dur_ns();
    }
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
    for span in spans {
        let entry = by_name.entry(span.name).or_default();
        entry.0.push(span.dur_ns() as f64 / 1e3);
        entry.1 += span.dur_ns().saturating_sub(covered.get(&span.id).copied().unwrap_or(0));
    }
    by_name
        .into_iter()
        .map(|(name, (mut durations, self_ns))| Row {
            name,
            count: durations.len(),
            p50_us: stats::median(&mut durations),
            self_ms: self_ns as f64 / 1e6,
        })
        .collect()
}

/// Renders [`table`] as aligned text with each row's share of all self
/// time.
pub fn render_table(rows: &[Row]) -> String {
    let total: f64 = rows.iter().map(|r| r.self_ms).sum();
    let mut out = format!(
        "{:<30} {:>9} {:>12} {:>12} {:>7}\n",
        "span (layer.operation)", "count", "p50 us", "self ms", "self %"
    );
    for row in rows {
        out.push_str(&format!(
            "{:<30} {:>9} {:>12.2} {:>12.2} {:>6.1}%\n",
            row.name,
            row.count,
            row.p50_us,
            row.self_ms,
            100.0 * stats::ratio(row.self_ms, total)
        ));
    }
    out
}

/// Writes at most `limit` spans as Chrome trace-event JSON (complete `X`
/// events, microsecond timestamps), in the order given; returns how many
/// it wrote.
pub fn write_chrome_trace(path: &Path, spans: &[Span], limit: usize) -> io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let written = spans.len().min(limit);
    for (i, span) in spans[..written].iter().enumerate() {
        if i > 0 {
            out.write_all(b",\n")?;
        }
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\
             \"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"request\":{}}}}}",
            span.name,
            span.layer(),
            span.tid,
            span.start_ns as f64 / 1e3,
            span.dur_ns() as f64 / 1e3,
            span.id,
            span.parent,
            span.request
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { name, id, parent, request: 1, tid: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = [
            span("server.handle", 1, 0, 0, 10_000),
            span("proto.decode", 2, 1, 1_000, 4_000),
            span("service.localize", 3, 1, 4_000, 9_000),
        ];
        let rows = table(&spans);
        let handle = rows.iter().find(|r| r.name == "server.handle").expect("row");
        assert_eq!(handle.count, 1);
        assert!((handle.self_ms - 0.002).abs() < 1e-12);
        assert!((handle.p50_us - 10.0).abs() < 1e-12);
        let decode = rows.iter().find(|r| r.name == "proto.decode").expect("row");
        assert!((decode.self_ms - 0.003).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_parent() {
        let mut tracer = Tracer::new(Instant::now(), 3);
        let outer = tracer.begin("client.cycle", 9);
        let ((), _) = tracer.time("client.encode", 9, || ());
        tracer.end(outer);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[0].parent, 0);
        assert!(spans.iter().all(|s| s.request == 9 && s.tid == 3));
        assert_eq!(spans[0].layer(), "client");
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-chrome-trace.json");
        let spans = [span("a.b", 1, 0, 0, 1_500), span("a.c", 2, 0, 2_000, 3_000)];
        assert_eq!(write_chrome_trace(&path, &spans, 1).expect("write"), 1);
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).expect("clean up");
        assert!(!text.contains("a.c"));
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert!(text.contains("\"name\":\"a.b\",\"cat\":\"a\",\"ph\":\"X\""));
        assert!(text.contains("\"dur\":1.500"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
