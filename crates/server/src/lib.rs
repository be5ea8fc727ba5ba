//! `reshuffle-server`: the long-running synthesis service the ROADMAP's
//! production story asks for — [`Pipeline`] behind a hand-rolled
//! HTTP/1.1 layer on [`std::net::TcpListener`].
//!
//! Four pillars:
//!
//! 1. **Crash-safe persistent cache** — every run goes through one
//!    shared [`SynthCache`]; with a configured
//!    [`cache path`](ServerConfig::with_cache_path) the cache is
//!    recovered at startup by replaying the journal at that path,
//!    every newly executed synthesis is appended to it, fsync'd, the
//!    moment it lands, and a clean shutdown atomically rewrites it to
//!    one record per entry — so a `kill -9` at any point loses zero
//!    completed syntheses. An optional
//!    [`capacity`](ServerConfig::with_cache_capacity) bounds the cache
//!    with LRU eviction.
//! 2. **Keep-alive connections** — one accepted socket serves many
//!    requests (HTTP/1.1 semantics: reuse unless `Connection: close`
//!    or HTTP/1.0), bounded by an
//!    [`idle deadline`](ServerConfig::with_idle_timeout) between
//!    requests and a
//!    [`max-requests-per-connection`](ServerConfig::with_max_requests_per_conn)
//!    cap. Each request is read under an *absolute* deadline across
//!    head and body, so a byte-trickling client gets a `408` instead
//!    of holding a worker.
//! 3. **Batching + single-flight dedup** — connections land on a
//!    bounded accept queue drained by a worker pool of
//!    [`threads`](ServerConfig::with_threads) workers (default: the
//!    available parallelism); when the queue is full the service
//!    sheds load with `503` instead of stalling. Concurrent requests
//!    for the same spec × options (the [`reshuffle::run_cache_key`])
//!    coalesce into one pipeline execution whose result every waiter
//!    shares, with a per-request timeout.
//! 4. **Ops surface** — `GET /stats` reports
//!    connection/request/coalescing/shed/write-failure counters, cache
//!    hit/entry/eviction/journal counters, and accumulated per-stage
//!    wall times as JSON; `GET /metrics` serves the same counters plus
//!    log-bucketed latency histograms (request service time,
//!    accept-queue wait, coalesced-follower wait, per-stage wall time)
//!    in Prometheus text exposition format. Every response echoes an
//!    `X-Trace-Id` header — derived per request from the run cache key
//!    plus a nonce, or propagated verbatim from a parseable client
//!    `X-Trace-Id` — and with a nonzero
//!    [`trace level`](ServerConfig::with_trace_level) the request, its
//!    pipeline stages and the state-graph build's two passes are
//!    emitted as JSON span lines sharing that id.
//!
//! For horizontal deployment the same server also runs as a
//! **fingerprint-sharded router** in front of N of these backends —
//! [`ServerConfig::with_route`] — on the same connection-serving
//! engine and endpoint surface: it parses each request, computes the
//! backends' own cache key, forwards it to backend `key % N` over
//! pooled keep-alive connections, fails over to a bounded `503`
//! stamped `X-Role: router` when that backend is down, and answers
//! `/stats` and `/metrics` with fleet rollups.
//!
//! # Endpoints
//!
//! | Method | Path | Body | Response |
//! |---|---|---|---|
//! | `POST` | `/synthesize` | `{"g": "<.g text>", "options": {…}}` | `{"cache_hit": b, "coalesced": b, "result": {…}}` |
//! | `GET`  | `/stats` | — | counters + stage timings |
//! | `GET`  | `/metrics` | — | Prometheus text exposition (0.0.4) |
//! | `GET`  | `/healthz` | — | `ok` |
//! | `POST` | `/shutdown` | — | `ok`, then the server drains and exits |
//!
//! `options` mirrors [`PipelineOptions`]: `"style"`
//! (`"complex-gate"`/`"gc"`), `"expand"`/`"reduce"` (`true`, an options
//! object, or `null`), `"csc"` (`{"max_signals", "rank_pool"}`) and
//! `"skip_verify"`. Malformed requests get `400`, a lapsed read
//! deadline `408`, oversized bodies `413`, pipeline failures `422`,
//! shed load `503`, and a coalesced wait past the timeout `504`.

#![warn(missing_docs)]

pub mod client;
mod engine;
mod flight;
mod http;
mod router;
pub mod shard;

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reshuffle::{
    run_cache_key, CscOptions, ExpansionOptions, FileStore, ImplStyle, Pipeline, PipelineOptions,
    ReduceOptions, Stage, SynthCache,
};
use reshuffle_obs::json::{self, Json};
use reshuffle_obs::{FieldVal, HistSnapshot, Histogram, PromWriter, Tracer};
use reshuffle_petri::parse_g;

use engine::{error_body, Engine, EngineState, Response, Service, Stat, SynthRequest};
use router::RouteService;
use shard::ShardTable;

pub use client::{ClientConn, ClientResponse};
pub use flight::{FlightResult, Follower, Join, LeaderGuard, SingleFlight};
pub use reshuffle_obs::{RingSink, SinkHandle, TraceId};

/// How the service binds, pools, bounds and persists — or, with
/// [`ServerConfig::with_route`], which backends it routes to.
///
/// `#[non_exhaustive]`: build it with [`ServerConfig::new`] and the
/// `with_*` setters.
///
/// # Worked example
///
/// Bind to an ephemeral port, answer a health check, shut down:
///
/// ```
/// use reshuffle_server::{Server, ServerConfig};
/// use std::io::{Read, Write};
///
/// # fn main() -> std::io::Result<()> {
/// let cfg = ServerConfig::new()
///     .with_addr("127.0.0.1:0")
///     .with_threads(2)
///     .with_cache_capacity(Some(64));
/// let server = Server::start(cfg)?;
///
/// let mut conn = std::net::TcpStream::connect(server.addr())?;
/// conn.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")?;
/// let mut response = String::new();
/// conn.read_to_string(&mut response)?;
/// assert!(response.starts_with("HTTP/1.1 200"), "{response}");
///
/// server.stop()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` by default — an ephemeral port).
    pub addr: String,
    /// Worker threads; `0` (the default) resolves to the machine's
    /// available parallelism.
    pub threads: usize,
    /// Accepted connections queued ahead of the workers; one more and
    /// the service sheds with `503`.
    pub queue_depth: usize,
    /// Per-request budget: the absolute deadline for reading one
    /// request (head + body — a trickling client gets `408`), the wait
    /// bound for coalesced followers, and a router's read timeout on
    /// forwarded backend exchanges.
    pub request_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served over one connection before the server closes it
    /// (`Connection: close` on the last response).
    pub max_requests_per_conn: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// LRU bound on the synthesis cache (`None` = unbounded). Serve
    /// mode only.
    pub cache_capacity: Option<usize>,
    /// The cache's journal file: replayed at startup, appended (and
    /// fsync'd) on every executed synthesis, rewritten to one record
    /// per entry at a clean shutdown (`None` = in-memory only). Serve
    /// mode only.
    pub cache_path: Option<PathBuf>,
    /// This backend's shard index in a sharded deployment, reported in
    /// `GET /stats` so a rollup can attribute numbers to backends
    /// (`None` = standalone). Serve mode only.
    pub shard_id: Option<u64>,
    /// Tracing switch: `0` disables tracing (one relaxed atomic load
    /// per would-be span); any other value traces requests, pipeline
    /// stages and the state-graph build. Defaults to the
    /// `RESHUFFLE_TRACE` environment variable, or `0`.
    pub trace_level: u8,
    /// Where span JSON lines go when tracing is on (`None` = stderr).
    pub trace_sink: Option<SinkHandle>,
    /// Backend addresses in shard order: `Some` runs the router tier
    /// in front of them (`key % N` indexes the list, so its order is
    /// part of the routing contract); `None` (the default) serves
    /// synthesis itself.
    pub route: Option<Vec<String>>,
    /// Route mode: total exchange attempts per forward (≥ 1);
    /// exhausting them answers `503` with `X-Role: router`.
    pub retries: usize,
    /// Route mode: dial deadline for backend connections and health
    /// probes.
    pub connect_timeout: Duration,
    /// Route mode: cadence of the background `/healthz` probe loop.
    pub health_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            queue_depth: 64,
            request_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_conn: 128,
            max_body_bytes: 1024 * 1024,
            cache_capacity: None,
            cache_path: None,
            shard_id: None,
            trace_level: std::env::var("RESHUFFLE_TRACE")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0),
            trace_sink: None,
            route: None,
            retries: 2,
            connect_timeout: Duration::from_secs(1),
            health_interval: Duration::from_millis(500),
        }
    }
}

impl ServerConfig {
    /// The default configuration (ephemeral localhost port, pool sized
    /// by available parallelism, 64-deep queue, 30 s request timeout,
    /// 5 s keep-alive idle deadline, 128 requests per connection,
    /// 1 MiB bodies, unbounded in-memory cache; in route mode 2
    /// forward attempts, 1 s dials and 500 ms health probes).
    pub fn new() -> ServerConfig {
        ServerConfig::default()
    }

    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> ServerConfig {
        self.addr = addr.into();
        self
    }

    /// Sets the worker-pool size (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> ServerConfig {
        self.threads = threads;
        self
    }

    /// Sets the accept-queue bound.
    pub fn with_queue_depth(mut self, depth: usize) -> ServerConfig {
        self.queue_depth = depth;
        self
    }

    /// Sets the per-request timeout.
    pub fn with_request_timeout(mut self, timeout: Duration) -> ServerConfig {
        self.request_timeout = timeout;
        self
    }

    /// Sets the keep-alive idle deadline between requests.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> ServerConfig {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the per-connection request cap (min 1).
    pub fn with_max_requests_per_conn(mut self, max: usize) -> ServerConfig {
        self.max_requests_per_conn = max.max(1);
        self
    }

    /// Sets the request-body limit.
    pub fn with_max_body_bytes(mut self, bytes: usize) -> ServerConfig {
        self.max_body_bytes = bytes;
        self
    }

    /// Bounds the synthesis cache (`None` = unbounded).
    pub fn with_cache_capacity(mut self, capacity: Option<usize>) -> ServerConfig {
        self.cache_capacity = capacity;
        self
    }

    /// Persists the cache to `path` across restarts.
    pub fn with_cache_path(mut self, path: impl Into<PathBuf>) -> ServerConfig {
        self.cache_path = Some(path.into());
        self
    }

    /// Reports this backend as shard `id` in `GET /stats`.
    pub fn with_shard_id(mut self, id: u64) -> ServerConfig {
        self.shard_id = Some(id);
        self
    }

    /// Switches tracing off (`0`) or on (any other value).
    pub fn with_trace_level(mut self, level: u8) -> ServerConfig {
        self.trace_level = level;
        self
    }

    /// Routes span JSON lines to `sink` instead of stderr.
    pub fn with_trace_sink(mut self, sink: SinkHandle) -> ServerConfig {
        self.trace_sink = Some(sink);
        self
    }

    /// Runs the router tier in front of `backends` (in shard order)
    /// instead of serving synthesis: each `POST /synthesize` is parsed
    /// only far enough to compute the backends' own cache key
    /// ([`reshuffle::source_cache_key`]) and forwarded to backend
    /// `key % N`, so identical requests always meet in one backend's
    /// flight table and cache.
    pub fn with_route(mut self, backends: Vec<String>) -> ServerConfig {
        self.route = Some(backends);
        self
    }

    /// Route mode: sets the forward attempt budget (min 1).
    pub fn with_retries(mut self, attempts: usize) -> ServerConfig {
        self.retries = attempts.max(1);
        self
    }

    /// Route mode: sets the backend dial deadline.
    pub fn with_connect_timeout(mut self, timeout: Duration) -> ServerConfig {
        self.connect_timeout = timeout;
        self
    }

    /// Route mode: sets the health-probe cadence.
    pub fn with_health_interval(mut self, interval: Duration) -> ServerConfig {
        self.health_interval = interval;
        self
    }
}

/// Counters owned by the synthesis service (the transport counters —
/// connections, requests, shed, timeouts on the read path — live in
/// the engine).
#[derive(Debug, Default)]
struct SynthStats {
    executed: AtomicU64,
    coalesced: AtomicU64,
    timeouts: AtomicU64,
    /// Places removed by structural pre-reduction, summed over runs.
    prereduce_places: AtomicU64,
    /// Transitions removed by structural pre-reduction, summed over runs.
    prereduce_transitions: AtomicU64,
    /// Lattice restriction products served from the shared-prefix
    /// cache, summed over runs.
    lattice_prefix_hits: AtomicU64,
}

/// Number of reportable pipeline stages (the five real stages plus the
/// `cache_hit` pseudo-stage).
const NUM_STAGES: usize = 6;

fn stage_index(stage: Stage) -> usize {
    match stage {
        Stage::Parse => 0,
        Stage::Expand => 1,
        Stage::Reduce => 2,
        Stage::Resolve => 3,
        Stage::Synthesize => 4,
        Stage::CacheHit => 5,
    }
}

const STAGE_NAMES: [&str; NUM_STAGES] = [
    "parse",
    "expand",
    "reduce",
    "resolve",
    "synthesize",
    "cache_hit",
];

/// `Ok(stable result JSON)` or `Err((status, error message))` — what a
/// flight leader publishes to its followers.
type SynthOutcome = Result<String, (u16, String)>;

/// The synthesis backend: everything above the transport — the cache,
/// the single-flight registry, the pipeline, and the ops surface.
struct SynthService {
    engine: Arc<EngineState>,
    cache: SynthCache,
    flights: SingleFlight<SynthOutcome>,
    stats: SynthStats,
    /// Coalesced-follower wait on the in-flight leader's publication.
    flight_wait: Histogram,
    /// Per-stage pipeline wall time, indexed by [`stage_index`]: the
    /// `/metrics` histograms and the `/stats` stage rows alike.
    stage_hists: [Histogram; NUM_STAGES],
    tracer: Tracer,
}

impl SynthService {
    fn accumulate_stages(&self, diag: &reshuffle::Diagnostics) {
        for report in &diag.stages {
            self.stage_hists[stage_index(report.stage)].record(report.wall);
        }
        self.stats
            .prereduce_places
            .fetch_add(diag.prereduce_places_removed, Ordering::Relaxed);
        self.stats
            .prereduce_transitions
            .fetch_add(diag.prereduce_transitions_removed, Ordering::Relaxed);
        self.stats
            .lattice_prefix_hits
            .fetch_add(diag.lattice_prefix_hits, Ordering::Relaxed);
    }
}

/// Decodes a `POST /synthesize` body into its `.g` source and
/// [`PipelineOptions`]. Both tiers decode through this, so a router's
/// routing key agrees with the backend's cache key. The error is the
/// `400` message.
pub(crate) fn decode_request(body: &[u8]) -> Result<(String, PipelineOptions), String> {
    let request = std::str::from_utf8(body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(json::parse)
        .map_err(|e| format!("bad JSON: {e}"))?;
    let g = request
        .get("g")
        .and_then(Json::as_str)
        .ok_or("missing string member \"g\"")?;
    Ok((g.to_string(), options_from_json(request.get("options"))?))
}

/// Maps a request's `options` member onto [`PipelineOptions`] — the
/// same vocabulary as the builder setters.
fn options_from_json(spec: Option<&Json>) -> Result<PipelineOptions, String> {
    let mut opts = PipelineOptions::new();
    let Some(spec) = spec else {
        return Ok(opts);
    };
    let Json::Obj(members) = spec else {
        return Err("options must be an object".into());
    };
    for (key, value) in members {
        match key.as_str() {
            "style" => {
                opts = opts.with_style(match value.as_str() {
                    Some("complex-gate") => ImplStyle::ComplexGate,
                    Some("gc") => ImplStyle::GeneralizedC,
                    _ => return Err("style must be \"complex-gate\" or \"gc\"".into()),
                });
            }
            "expand" => match value {
                Json::Null | Json::Bool(false) => {}
                Json::Bool(true) => opts = opts.with_expand(ExpansionOptions::default()),
                Json::Obj(_) => {
                    let mut eopts = ExpansionOptions::default();
                    if let Some(n) = value.get("max_reshufflings") {
                        eopts.max_reshufflings = count_field(n, "expand.max_reshufflings")?;
                    }
                    opts = opts.with_expand(eopts);
                }
                _ => return Err("expand must be a bool, an object, or null".into()),
            },
            "reduce" => match value {
                Json::Null | Json::Bool(false) => {}
                Json::Bool(true) => opts = opts.with_reduce(ReduceOptions::default()),
                Json::Obj(_) => {
                    let mut ropts = ReduceOptions::default();
                    if let Some(v) = value.get("max_cycle_time") {
                        ropts.max_cycle_time = match v {
                            Json::Null => None,
                            _ => Some(num_field(v, "reduce.max_cycle_time")?),
                        };
                    }
                    if let Some(v) = value.get("max_moves") {
                        ropts.max_moves = count_field(v, "reduce.max_moves")?;
                    }
                    if let Some(v) = value.get("max_expansions") {
                        ropts.max_expansions = count_field(v, "reduce.max_expansions")?;
                    }
                    if let Some(v) = value.get("input_delay") {
                        ropts.input_delay = num_field(v, "reduce.input_delay")?;
                    }
                    if let Some(v) = value.get("gate_delay") {
                        ropts.gate_delay = num_field(v, "reduce.gate_delay")?;
                    }
                    opts = opts.with_reduce(ropts);
                }
                _ => return Err("reduce must be a bool, an object, or null".into()),
            },
            "csc" => {
                let Json::Obj(_) = value else {
                    return Err("csc must be an object".into());
                };
                let mut copts = CscOptions::default();
                if let Some(v) = value.get("max_signals") {
                    copts.max_signals = count_field(v, "csc.max_signals")?;
                }
                if let Some(v) = value.get("rank_pool") {
                    copts.rank_pool = count_field(v, "csc.rank_pool")?;
                }
                opts = opts.with_csc(copts);
            }
            "skip_verify" => match value {
                Json::Bool(b) => opts = opts.with_skip_verify(*b),
                _ => return Err("skip_verify must be a bool".into()),
            },
            other => return Err(format!("unknown option: {other}")),
        }
    }
    Ok(opts)
}

fn num_field(value: &Json, what: &str) -> Result<f64, String> {
    value
        .as_num()
        .filter(|n| *n >= 0.0)
        .ok_or_else(|| format!("{what} must be a non-negative number"))
}

/// Largest count a request may give: every whole number up to it is
/// exact in a JSON number (an `f64`).
const MAX_COUNT: f64 = (1u64 << 53) as f64;

/// A count: a whole number from 0 to 2^53, never rounded or clamped.
fn count_field(value: &Json, what: &str) -> Result<usize, String> {
    value
        .as_num()
        .filter(|n| (0.0..=MAX_COUNT).contains(n) && n.fract() == 0.0)
        .and_then(|n| usize::try_from(n as u64).ok())
        .ok_or_else(|| format!("{what} must be a whole number from 0 to 2^53"))
}

impl Service for SynthService {
    fn synthesize(&self, request: &SynthRequest<'_>) -> Response {
        let stg = match parse_g(&request.g) {
            Ok(stg) => stg,
            Err(e) => {
                let body = error_body(&format!("parse: {e}"));
                return Response::json(422, body, request.trace(0));
            }
        };
        let opts = &request.opts;
        let key = run_cache_key(&stg, opts);
        let trace = request.trace(key);
        let root = self.tracer.root(trace);
        let sp = root.span("request");

        let (status, body, coalesced) = match self.flights.join(key) {
            Join::Leader(guard) => {
                let outcome = self.run_pipeline(key, &stg, opts, sp.ctx());
                guard.publish(outcome.clone().map(|(stable, _)| stable));
                match outcome {
                    Ok((stable, cache_hit)) => {
                        (200, synth_response(cache_hit, false, &stable), false)
                    }
                    Err((status, msg)) => (status, error_body(&msg), false),
                }
            }
            Join::Follower(follower) => {
                let t_wait = Instant::now();
                let result = follower.wait(self.engine.cfg.request_timeout);
                self.flight_wait.record(t_wait.elapsed());
                match result {
                    FlightResult::Done(Ok(stable)) => {
                        self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                        (200, synth_response(false, true, &stable), true)
                    }
                    FlightResult::Done(Err((status, msg))) => {
                        self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                        (status, error_body(&msg), true)
                    }
                    FlightResult::Abandoned => {
                        (500, error_body("in-flight synthesis failed"), true)
                    }
                    FlightResult::TimedOut => {
                        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                        (
                            504,
                            error_body("timed out waiting for in-flight synthesis"),
                            true,
                        )
                    }
                }
            }
        };
        sp.end(&[
            ("status", FieldVal::U64(u64::from(status))),
            ("coalesced", FieldVal::U64(u64::from(coalesced))),
        ]);
        Response::json(status, body, trace)
    }

    fn stats(&self) -> Vec<Stat> {
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
        let (s, cache) = (&self.stats, &self.cache);
        vec![
            (
                "executed",
                "reshuffle_synth_executed_total",
                "Synthesize runs that executed the pipeline (cache misses).",
                count(&s.executed),
            ),
            (
                "coalesced",
                "reshuffle_synth_coalesced_total",
                "Synthesize requests served by another request's in-flight run.",
                count(&s.coalesced),
            ),
            (
                "timeouts",
                "reshuffle_follower_timeouts_total",
                "Coalesced waits that lapsed the request timeout (504).",
                count(&s.timeouts),
            ),
            (
                "in_flight",
                "reshuffle_in_flight",
                "Synthesize flights currently executing.",
                self.flights.in_flight() as f64,
            ),
            (
                "prereduce_places_removed",
                "reshuffle_prereduce_places_removed_total",
                "Places removed by structural pre-reduction before state-graph builds.",
                count(&s.prereduce_places),
            ),
            (
                "prereduce_transitions_removed",
                "reshuffle_prereduce_transitions_removed_total",
                "Transitions removed by structural pre-reduction (series dummy merges).",
                count(&s.prereduce_transitions),
            ),
            (
                "lattice_prefix_hits",
                "reshuffle_lattice_prefix_hits_total",
                "Lattice restriction products served from the shared-prefix cache.",
                count(&s.lattice_prefix_hits),
            ),
            (
                "cache.entries",
                "reshuffle_cache_entries",
                "Entries resident in the synthesis cache.",
                cache.len() as f64,
            ),
            (
                "cache.hits",
                "reshuffle_cache_hits_total",
                "Synthesis-cache hits.",
                cache.hits() as f64,
            ),
            (
                "cache.misses",
                "reshuffle_cache_misses_total",
                "Synthesis-cache misses.",
                cache.misses() as f64,
            ),
            (
                "cache.shared_hits",
                "reshuffle_cache_shared_hits_total",
                "Expansion candidates served from the shared cache.",
                cache.shared_hits() as f64,
            ),
            (
                "cache.evictions",
                "reshuffle_cache_evictions_total",
                "LRU evictions from the bounded cache.",
                cache.evictions() as f64,
            ),
            (
                "cache.journal_appends",
                "reshuffle_cache_journal_appends_total",
                "Syntheses appended to the crash journal.",
                cache.journal_appends() as f64,
            ),
            (
                "cache.journal_errors",
                "reshuffle_cache_journal_errors_total",
                "Failed journal appends.",
                cache.journal_errors() as f64,
            ),
        ]
    }

    /// The shard id, the cache bound, and accumulated wall time per
    /// pipeline stage (the stage histograms' count and sum, so `/stats`
    /// and `/metrics` agree).
    fn stats_doc(&self) -> Vec<(&'static str, Json)> {
        let stages = Json::Arr(
            STAGE_NAMES
                .iter()
                .zip(self.stage_hists.iter().map(Histogram::snapshot))
                .filter(|(_, snap)| snap.count > 0)
                .map(|(name, snap)| {
                    Json::obj(vec![
                        ("stage", Json::Str(name.to_string())),
                        ("runs", Json::Num(snap.count as f64)),
                        ("wall_ms", Json::Num(snap.sum_micros as f64 / 1e3)),
                    ])
                })
                .collect(),
        );
        let num = |n: Option<u64>| n.map_or(Json::Null, |n| Json::Num(n as f64));
        vec![
            ("shard_id", num(self.engine.cfg.shard_id)),
            (
                "cache.capacity",
                num(self.cache.capacity().map(|c| c as u64)),
            ),
            ("stages", stages),
        ]
    }

    /// The shard id, the coalesced-follower wait, and per-stage
    /// pipeline wall time.
    fn metrics(&self, w: &mut PromWriter) {
        if let Some(id) = self.engine.cfg.shard_id {
            w.gauge(
                "reshuffle_shard_id",
                "This backend's shard index in the sharded deployment.",
                id as f64,
            );
        }
        w.histogram(
            "reshuffle_flight_wait_seconds",
            "Coalesced follower wait on the in-flight leader.",
            &self.flight_wait.snapshot(),
        );
        let snaps: Vec<HistSnapshot> = self.stage_hists.iter().map(Histogram::snapshot).collect();
        let labels: Vec<[(&str, &str); 1]> = STAGE_NAMES.iter().map(|n| [("stage", *n)]).collect();
        let series: Vec<(&[(&str, &str)], &HistSnapshot)> = labels
            .iter()
            .zip(snaps.iter())
            .map(|(l, snap)| (l.as_slice(), snap))
            .collect();
        w.histogram_family(
            "reshuffle_stage_duration_seconds",
            "Per-stage pipeline wall time (cache_hit is the hit path's lookup latency).",
            &series,
        );
    }
}

impl SynthService {
    /// Runs the pipeline under the shared cache, returning the stable
    /// result JSON (identical for every coalesced waiter) plus whether
    /// the run was a cache hit.
    fn run_pipeline(
        &self,
        key: u64,
        stg: &reshuffle::Stg,
        opts: &PipelineOptions,
        span: reshuffle_obs::SpanCtx,
    ) -> Result<(String, bool), (u16, String)> {
        let done = Pipeline::from_stg(stg)
            .with_cache(&self.cache)
            .with_trace(span)
            .run(opts)
            .map_err(|e| (422u16, e.to_string()))?;
        let cache_hit = done.diagnostics().cache_hits == 1;
        if !cache_hit {
            self.stats.executed.fetch_add(1, Ordering::Relaxed);
        }
        // Hit runs report too: the `cache_hit` pseudo-stage keeps the
        // hit path's lookup cost visible in `/stats` and `/metrics`.
        self.accumulate_stages(done.diagnostics());
        let s = done.synthesis();
        let strings =
            |items: &[String]| Json::Arr(items.iter().map(|i| Json::Str(i.clone())).collect());
        let result = Json::obj(vec![
            ("key", Json::Str(format!("{key:#018x}"))),
            ("model", Json::Str(s.stg.name.clone())),
            (
                "signals",
                Json::Arr(
                    s.netlist
                        .signals()
                        .iter()
                        .map(|sig| Json::Str(sig.name.clone()))
                        .collect(),
                ),
            ),
            ("inserted", strings(&s.inserted)),
            (
                "moves",
                Json::Arr(s.move_labels().map(|l| Json::Str(l.to_string())).collect()),
            ),
            ("expansion", strings(&s.expansion)),
            ("netlist", Json::Str(s.netlist.describe())),
        ]);
        Ok((result.render(), cache_hit))
    }
}

fn synth_response(cache_hit: bool, coalesced: bool, stable: &str) -> String {
    // `stable` is the leader's already-rendered result object; splice
    // it in verbatim so every coalesced response carries an identical
    // payload.
    format!("{{\"cache_hit\":{cache_hit},\"coalesced\":{coalesced},\"result\":{stable}}}")
}

/// A running server — a synthesis backend, or with
/// [`ServerConfig::with_route`] a router: accept thread plus worker
/// pool (and a router's health-probe loop).
///
/// Start with [`Server::start`]; take the service down with
/// [`Server::stop`] (or let a client `POST /shutdown` and pair it with
/// [`Server::wait_for_shutdown`] + `stop`, the binary's lifecycle).
pub struct Server {
    engine: Engine,
    tier: Tier,
}

/// What a running server holds beyond its engine.
enum Tier {
    Serve(Arc<SynthService>),
    Route(Arc<RouteService>, Option<JoinHandle<()>>),
}

impl Server {
    /// Binds and spawns the accept thread plus worker pool. A backend
    /// first recovers its cache (journal replay, when a path is
    /// configured) and arms the fsync'd journal so every executed
    /// synthesis is immediately crash-durable; a router also starts
    /// its background `/healthz` probe loop.
    ///
    /// # Errors
    ///
    /// Bind failures and unreadable/corrupt journals (a torn final
    /// record — a crash mid-append — is recovered from, not an error:
    /// the journal is rewritten without it before anything is appended
    /// after it). In route mode, an empty
    /// backend list or a serve-only setting (cache path, cache
    /// capacity, shard id) is [`io::ErrorKind::InvalidInput`].
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let tracer = Tracer::new(
            cfg.trace_level > 0,
            cfg.trace_sink.clone().unwrap_or_else(SinkHandle::stderr),
        );
        if cfg.route.is_some() {
            return router::start(cfg, tracer);
        }
        let cache = match &cfg.cache_path {
            Some(path) => {
                let store = FileStore::new(path);
                let recovery = SynthCache::recover(&store)?;
                if recovery.torn_bytes > 0 {
                    recovery.cache.compact_to(&store)?;
                }
                recovery.cache.attach_journal(Arc::new(store));
                recovery.cache
            }
            None => SynthCache::new(),
        };
        cache.set_capacity(cfg.cache_capacity);
        let state = Arc::new(EngineState::new(cfg));
        let svc = Arc::new(SynthService {
            engine: state.clone(),
            cache,
            flights: SingleFlight::new(),
            stats: SynthStats::default(),
            flight_wait: Histogram::new(),
            stage_hists: std::array::from_fn(|_| Histogram::new()),
            tracer,
        });
        let engine = Engine::start(state, svc.clone())?;
        Ok(Server {
            engine,
            tier: Tier::Serve(svc),
        })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.engine.addr()
    }

    /// A router's routing table (health and per-backend counters);
    /// `None` in serve mode.
    pub fn shards(&self) -> Option<&ShardTable> {
        match &self.tier {
            Tier::Route(svc, _) => Some(&svc.table),
            Tier::Serve(_) => None,
        }
    }

    /// Blocks until a client posts `/shutdown`.
    pub fn wait_for_shutdown(&self) {
        self.engine.wait_for_shutdown();
    }

    /// Stops accepting, drains the pool, and compacts a backend's
    /// journal — an atomic rewrite to one record per cache entry — when
    /// a path is configured.
    ///
    /// # Errors
    ///
    /// Rewrite failures; the threads are already down by then (and the
    /// old journal is left whole, so even a failed compaction loses
    /// nothing).
    pub fn stop(mut self) -> io::Result<()> {
        self.join();
        if let Tier::Serve(svc) = &self.tier {
            if let Some(path) = &svc.engine.cfg.cache_path {
                svc.cache.compact_to(&FileStore::new(path))?;
            }
        }
        Ok(())
    }

    /// Tears the service down *without* the shutdown compaction — the
    /// crash-simulation path (the in-process analogue of `kill -9`
    /// minus leaked threads): the journal is left as appended, which
    /// is exactly what [`Server::start`] recovers from.
    pub fn abort(mut self) {
        self.join();
    }

    fn join(&mut self) {
        self.engine.join();
        if let Tier::Route(_, health) = &mut self.tier {
            if let Some(health) = health.take() {
                let _ = health.join();
            }
        }
    }
}
