//! Observability primitives for the reshuffle synthesis service.
//!
//! Four pieces, all dependency-free:
//!
//! * [`span`] — hierarchical spans with monotonic timestamps and a
//!   per-request [`TraceId`], emitted as JSON lines to a pluggable
//!   [`Sink`]. Disabled tracing costs one branch on an `AtomicBool`.
//! * [`hist`] — fixed log2-bucketed latency [`Histogram`]s with
//!   per-thread shards merged on read and quantile extraction.
//! * [`prom`] — Prometheus text exposition (0.0.4) rendering plus a
//!   strict validating parser (also exposed as the `promlint` binary).
//! * [`json`] — a [`Json`] value tree with a compact renderer and a
//!   validating parser: request bodies, `/stats` documents, reports.

#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod prom;
pub mod span;

pub use hist::{HistSnapshot, Histogram};
pub use json::Json;
pub use prom::{parse, validate, PromDoc, PromFamily, PromSample, PromSummary, PromWriter};
pub use span::{
    ActiveSpan, FieldVal, FileSink, RingSink, Sink, SinkHandle, SpanCtx, StderrSink, TraceId,
    Tracer,
};
