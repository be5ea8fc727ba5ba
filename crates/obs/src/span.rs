//! Hierarchical spans with monotonic timestamps and pluggable sinks.
//!
//! A [`Tracer`] owns the clock epoch, the span-id allocator, the output
//! [`Sink`], and the on/off switch. A [`SpanCtx`] is the cheap,
//! cloneable handle threaded through the pipeline: it carries the tracer,
//! the request's [`TraceId`], and the parent span id. Opening a span on a
//! disabled context is a single branch (an `Option` check plus one
//! `AtomicBool` load), so instrumented code costs nothing when tracing is
//! off.
//!
//! Each finished span is emitted as one JSON object per line:
//!
//! ```json
//! {"trace":"<32 hex>","span":3,"parent":1,"name":"stage.expand",
//!  "t_us":120,"dur_us":4731,"states":1024}
//! ```
//!
//! `t_us` is the span start relative to the tracer epoch, `dur_us` the
//! span duration, both in microseconds; any extra fields are supplied at
//! `end()`.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::push_escaped;

/// A 128-bit request trace identifier, rendered as 32 lowercase hex chars.
///
/// The high half identifies *what* is being synthesized (the fingerprint ×
/// option-trail cache key); the low half is a per-request nonce, so two
/// requests for the same spec remain distinguishable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId {
    /// High 64 bits: the run cache key (fingerprint × option trail).
    pub hi: u64,
    /// Low 64 bits: a mixed per-request nonce.
    pub lo: u64,
}

/// splitmix64 finalizer: spreads sequential nonces over the full word.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TraceId {
    /// Derive a trace id from a cache key and a nonce (connection/request
    /// sequence number). The nonce is mixed so ids don't look sequential.
    pub fn derive(key: u64, nonce: u64) -> TraceId {
        TraceId {
            hi: key,
            lo: mix64(nonce) | 1, // never all-zero, even for key 0
        }
    }

    /// Parse 32 hex characters (as produced by [`fmt::Display`]).
    pub fn parse(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(TraceId { hi, lo })
    }

    /// True for the all-zero (absent) id.
    pub fn is_zero(&self) -> bool {
        self.hi == 0 && self.lo == 0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Where emitted span lines go. Implementations must tolerate concurrent
/// `emit` calls.
pub trait Sink: Send + Sync {
    /// Write one complete JSON line (no trailing newline in `line`).
    fn emit(&self, line: &str);
}

/// Sink that writes each line to stderr.
pub struct StderrSink;

impl Sink for StderrSink {
    fn emit(&self, line: &str) {
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "{line}");
    }
}

/// Sink that appends each line to a file.
pub struct FileSink {
    file: Mutex<File>,
}

impl FileSink {
    /// Create (or truncate) `path` for span output.
    pub fn create(path: &Path) -> std::io::Result<FileSink> {
        Ok(FileSink {
            file: Mutex::new(File::create(path)?),
        })
    }
}

impl Sink for FileSink {
    fn emit(&self, line: &str) {
        if let Ok(mut f) = self.file.lock() {
            let _ = writeln!(f, "{line}");
        }
    }
}

/// Bounded in-memory sink for tests: keeps the most recent `cap` lines.
pub struct RingSink {
    cap: usize,
    buf: Mutex<VecDeque<String>>,
}

impl RingSink {
    /// A ring buffer holding at most `cap` lines.
    pub fn new(cap: usize) -> RingSink {
        RingSink {
            cap: cap.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// Snapshot of the retained lines, oldest first.
    pub fn lines(&self) -> Vec<String> {
        self.buf
            .lock()
            .map(|b| b.iter().cloned().collect())
            .unwrap_or_default()
    }
}

impl Sink for RingSink {
    fn emit(&self, line: &str) {
        if let Ok(mut buf) = self.buf.lock() {
            if buf.len() == self.cap {
                buf.pop_front();
            }
            buf.push_back(line.to_string());
        }
    }
}

/// Shared, cloneable handle to a [`Sink`].
#[derive(Clone)]
pub struct SinkHandle(Arc<dyn Sink>);

impl SinkHandle {
    /// Wrap an arbitrary sink.
    pub fn new(sink: Arc<dyn Sink>) -> SinkHandle {
        SinkHandle(sink)
    }

    /// Stderr sink.
    pub fn stderr() -> SinkHandle {
        SinkHandle(Arc::new(StderrSink))
    }

    /// File sink (created/truncated at `path`).
    pub fn file(path: &Path) -> std::io::Result<SinkHandle> {
        Ok(SinkHandle(Arc::new(FileSink::create(path)?)))
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SinkHandle(..)")
    }
}

struct TracerInner {
    enabled: AtomicBool,
    epoch: Instant,
    sink: SinkHandle,
    next_span: AtomicU64,
}

/// Owns the trace clock, span-id allocation, on/off switch, and sink.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tracer(enabled={})", self.is_enabled())
    }
}

impl Tracer {
    /// A tracer emitting to `sink`; with `enabled` false it emits
    /// nothing until [switched on](Tracer::set_enabled).
    pub fn new(enabled: bool, sink: SinkHandle) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(enabled),
                epoch: Instant::now(),
                sink,
                next_span: AtomicU64::new(1),
            }),
        }
    }

    /// Switches emission on or off at runtime.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans are emitted.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Open a root context for one request.
    pub fn root(&self, trace: TraceId) -> SpanCtx {
        SpanCtx {
            tracer: Some(self.clone()),
            trace,
            parent: 0,
        }
    }
}

/// Cheap cloneable span context: tracer + trace id + parent span id.
///
/// `SpanCtx::default()` is permanently disabled, so library code can take a
/// `SpanCtx` unconditionally and uninstrumented callers pay one branch.
#[derive(Debug, Clone, Default)]
pub struct SpanCtx {
    tracer: Option<Tracer>,
    trace: TraceId,
    parent: u64,
}

impl SpanCtx {
    /// Is tracing live on this context? One `Option` check and one
    /// relaxed atomic load — the entire cost of the disabled path.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.tracer.as_ref().is_some_and(Tracer::is_enabled)
    }

    /// The trace id carried by this context (zero when disabled).
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// Open a child span; inert if tracing is off.
    pub fn span(&self, name: &'static str) -> ActiveSpan {
        if !self.enabled() {
            return ActiveSpan { live: None };
        }
        let tracer = self.tracer.clone().expect("enabled implies tracer");
        let id = tracer.inner.next_span.fetch_add(1, Ordering::Relaxed);
        let t_us = u64::try_from(tracer.inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        ActiveSpan {
            live: Some(Live {
                tracer,
                trace: self.trace,
                id,
                parent: self.parent,
                name,
                t_us,
                start: Instant::now(),
            }),
        }
    }
}

struct Live {
    tracer: Tracer,
    trace: TraceId,
    id: u64,
    parent: u64,
    name: &'static str,
    t_us: u64,
    start: Instant,
}

/// A field value attachable to a span at `end`.
#[derive(Debug, Clone, Copy)]
pub enum FieldVal<'a> {
    /// Unsigned integer field.
    U64(u64),
    /// String field (JSON-escaped on emission).
    Str(&'a str),
}

impl From<u64> for FieldVal<'_> {
    fn from(v: u64) -> Self {
        FieldVal::U64(v)
    }
}

impl From<usize> for FieldVal<'_> {
    fn from(v: usize) -> Self {
        FieldVal::U64(v as u64)
    }
}

impl<'a> From<&'a str> for FieldVal<'a> {
    fn from(v: &'a str) -> Self {
        FieldVal::Str(v)
    }
}

/// An open span. Finish it with [`ActiveSpan::end`] to attach fields;
/// dropping it unfinished emits the span with no extra fields.
pub struct ActiveSpan {
    live: Option<Live>,
}

impl ActiveSpan {
    /// A child context whose spans will point at this span as parent.
    /// Inert spans hand out a disabled context.
    pub fn ctx(&self) -> SpanCtx {
        match &self.live {
            None => SpanCtx::default(),
            Some(l) => SpanCtx {
                tracer: Some(l.tracer.clone()),
                trace: l.trace,
                parent: l.id,
            },
        }
    }

    /// Close the span, emitting one JSON line with the given extra fields.
    pub fn end(mut self, fields: &[(&str, FieldVal<'_>)]) {
        if let Some(live) = self.live.take() {
            emit_span(&live, fields);
        }
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            emit_span(&live, &[]);
        }
    }
}

fn emit_span(live: &Live, fields: &[(&str, FieldVal<'_>)]) {
    let dur_us = u64::try_from(live.start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let mut line = String::with_capacity(128);
    line.push_str("{\"trace\":\"");
    use fmt::Write as _;
    let _ = write!(line, "{}", live.trace);
    let _ = write!(
        line,
        "\",\"span\":{},\"parent\":{},\"name\":",
        live.id, live.parent
    );
    push_escaped(&mut line, live.name);
    let _ = write!(line, ",\"t_us\":{},\"dur_us\":{}", live.t_us, dur_us);
    for (k, v) in fields {
        line.push(',');
        push_escaped(&mut line, k);
        line.push(':');
        match v {
            FieldVal::U64(n) => {
                let _ = write!(line, "{n}");
            }
            FieldVal::Str(s) => push_escaped(&mut line, s),
        }
    }
    line.push('}');
    live.tracer.inner.sink.0.emit(&line);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_tracer() -> (Tracer, Arc<RingSink>) {
        let ring = Arc::new(RingSink::new(64));
        let tracer = Tracer::new(true, SinkHandle::new(ring.clone() as Arc<dyn Sink>));
        (tracer, ring)
    }

    #[test]
    fn trace_id_round_trips_through_hex() {
        let id = TraceId::derive(0xdead_beef_1234_5678, 42);
        let s = id.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(TraceId::parse(&s), Some(id));
        assert!(TraceId::parse("not-a-trace").is_none());
        assert!(TraceId::parse(&s[..31]).is_none());
        assert!(!id.is_zero());
    }

    #[test]
    fn nonces_spread_and_never_zero() {
        let a = TraceId::derive(0, 0);
        let b = TraceId::derive(0, 1);
        assert_ne!(a.lo, b.lo);
        assert!(a.lo != 0 && b.lo != 0);
    }

    #[test]
    fn disabled_context_emits_nothing_and_is_cheap() {
        let ctx = SpanCtx::default();
        assert!(!ctx.enabled());
        let span = ctx.span("noop");
        let child = span.ctx();
        assert!(!child.enabled());
        span.end(&[("k", FieldVal::U64(1))]);
    }

    #[test]
    fn spans_nest_and_share_the_trace_id() {
        let (tracer, ring) = ring_tracer();
        let trace = TraceId::derive(7, 9);
        let root = tracer.root(trace);
        let req = root.span("request");
        let stage = req.ctx().span("stage.expand");
        stage.end(&[("states", FieldVal::U64(10))]);
        req.end(&[
            ("status", FieldVal::U64(200)),
            ("path", FieldVal::Str("/x")),
        ]);

        let lines = ring.lines();
        assert_eq!(lines.len(), 2);
        let hex = trace.to_string();
        for line in &lines {
            assert!(line.contains(&format!("\"trace\":\"{hex}\"")), "{line}");
        }
        // Child closed first; its parent is the request span's id.
        assert!(
            lines[0].contains("\"name\":\"stage.expand\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"states\":10"), "{}", lines[0]);
        assert!(lines[1].contains("\"name\":\"request\""), "{}", lines[1]);
        assert!(lines[1].contains("\"parent\":0"), "{}", lines[1]);
        assert!(lines[1].contains("\"path\":\"/x\""), "{}", lines[1]);
    }

    #[test]
    fn tracing_switches_off_and_on() {
        let (tracer, ring) = ring_tracer();
        let root = tracer.root(TraceId::derive(1, 1));
        tracer.set_enabled(false);
        assert!(!root.enabled());
        let off = root.span("stage.expand");
        assert!(!off.ctx().enabled());
        drop(off);
        assert!(ring.lines().is_empty());
        tracer.set_enabled(true);
        assert!(root.enabled());
        root.span("stage.expand").end(&[]);
        assert_eq!(ring.lines().len(), 1);
        assert!(!Tracer::new(false, SinkHandle::stderr())
            .root(TraceId::default())
            .enabled());
    }

    #[test]
    fn ring_sink_keeps_the_most_recent_lines() {
        let ring = RingSink::new(2);
        ring.emit("a");
        ring.emit("b");
        ring.emit("c");
        assert_eq!(ring.lines(), vec!["b".to_string(), "c".to_string()]);
    }

    #[test]
    fn dropped_span_still_emits() {
        let (tracer, ring) = ring_tracer();
        let root = tracer.root(TraceId::derive(3, 3));
        drop(root.span("forgotten"));
        assert_eq!(ring.lines().len(), 1);
        assert!(ring.lines()[0].contains("\"name\":\"forgotten\""));
    }
}
