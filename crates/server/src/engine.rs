//! The connection-serving engine shared by the synthesis backend and
//! the router tier: bounded accept queue, worker pool, keep-alive
//! serving under absolute read deadlines, 503 load shedding, the
//! shutdown choreography (half-close every parked connection so idle
//! workers wake immediately), the endpoints both tiers answer alike
//! (`/healthz`, `/shutdown`, 404, 405), and the transport half of the
//! ops surface. What differs between tiers — `POST /synthesize` and
//! the tier's own counters — is the [`Service`] trait.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reshuffle::PipelineOptions;
use reshuffle_obs::{Histogram, Json, PromWriter, TraceId};

use crate::http::{write_response_with, Conn, HttpError, Request};
use crate::{decode_request, ServerConfig};

/// Counters the engine owns: the same on both tiers.
#[derive(Debug, Default)]
pub(crate) struct EngineStats {
    pub connections: AtomicU64,
    pub requests: AtomicU64,
    pub synth_requests: AtomicU64,
    pub shed: AtomicU64,
    pub request_timeouts: AtomicU64,
    pub bad_requests: AtomicU64,
    pub write_errors: AtomicU64,
}

/// Everything the accept loop, workers and the service share.
pub(crate) struct EngineState {
    pub cfg: ServerConfig,
    pub stats: EngineStats,
    /// Whole-request service time: request parsed off the socket to
    /// response written (or write failure).
    request_hist: Histogram,
    /// Accepted-connection wait from accept-queue enqueue to worker
    /// pickup — the queueing delay the shed bound protects.
    queue_wait_hist: Histogram,
    /// Accepted sockets waiting for a worker, each stamped with its
    /// enqueue instant so pickup records the queue-wait histogram.
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    queue_cv: Condvar,
    stop: AtomicBool,
    shutdown: (Mutex<bool>, Condvar),
    /// Live connections by id (a `try_clone` of each worker's socket):
    /// shutdown half-closes their read sides so workers parked on a
    /// keep-alive idle wait wake immediately instead of riding out the
    /// idle deadline.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_seq: AtomicU64,
    /// Per-request nonce feeding [`TraceId::derive`], so concurrent
    /// requests for the same spec stay distinguishable.
    req_seq: AtomicU64,
    started: Instant,
}

impl EngineState {
    pub fn new(cfg: ServerConfig) -> EngineState {
        EngineState {
            cfg,
            stats: EngineStats::default(),
            request_hist: Histogram::new(),
            queue_wait_hist: Histogram::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            shutdown: (Mutex::new(false), Condvar::new()),
            conns: Mutex::new(HashMap::new()),
            conn_seq: AtomicU64::new(0),
            req_seq: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Whether this tier routes to backends instead of synthesizing.
    fn routing(&self) -> bool {
        self.cfg.route.is_some()
    }

    /// Blocks until a client posts `/shutdown` (or `begin_shutdown`
    /// runs), or until `timeout` lapses when one is given. Returns
    /// whether shutdown has begun.
    pub fn wait_for_shutdown(&self, timeout: Option<Duration>) -> bool {
        let (lock, cv) = &self.shutdown;
        let mut down = lock.lock().unwrap();
        match timeout {
            None => {
                while !*down {
                    down = cv.wait(down).unwrap();
                }
                true
            }
            Some(timeout) => {
                let deadline = Instant::now() + timeout;
                while !*down {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return false;
                    }
                    (down, _) = cv.wait_timeout(down, left).unwrap();
                }
                true
            }
        }
    }

    fn begin_shutdown(&self, addr: SocketAddr) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(addr);
        // Unblock workers parked reading a keep-alive connection: the
        // read half closes (their next read sees EOF) while any
        // in-flight response still drains down the write half.
        for conn in self.conns.lock().unwrap().values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let (lock, cv) = &self.shutdown;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    /// A counted bad request: `status` with an error body.
    pub fn reject(&self, status: u16, msg: &str, trace: TraceId) -> Response {
        self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
        Response::json(status, error_body(msg), trace)
    }

    /// Metric family prefix: bare on a backend, `router_` on a router
    /// (whose `/metrics` also carries its backends' families under
    /// their own names).
    fn family_prefix(&self) -> &'static str {
        if self.routing() {
            "reshuffle_router_"
        } else {
            "reshuffle_"
        }
    }

    /// The transport counters as `(member, help, value)`: each one's
    /// `/stats` member, and its `/metrics` counter named the tier
    /// prefix + member + `_total`.
    fn transport(&self) -> [(&'static str, &'static str, u64); 7] {
        let s = &self.stats;
        let n = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        [
            ("connections", "Connections accepted.", n(&s.connections)),
            (
                "requests",
                "HTTP requests parsed off connections.",
                n(&s.requests),
            ),
            (
                "synth_requests",
                "POST /synthesize requests.",
                n(&s.synth_requests),
            ),
            (
                "shed",
                "Connections shed with 503 at the accept queue.",
                n(&s.shed),
            ),
            (
                "request_timeouts",
                "Requests that lapsed the read deadline (408).",
                n(&s.request_timeouts),
            ),
            (
                "bad_requests",
                "Malformed, oversized or unroutable requests.",
                n(&s.bad_requests),
            ),
            (
                "write_errors",
                "Responses that failed to write (client gone).",
                n(&s.write_errors),
            ),
        ]
    }
}

/// One scalar of a tier's ops surface, read by both renderers:
/// `(member, family, help, value)`. The `/stats` member may be a dotted
/// path (`cache.hits` is the `hits` member of the `cache` object); the
/// `/metrics` family is a counter when it ends in `_total`, the
/// Prometheus convention, and a gauge otherwise.
pub(crate) type Stat = (&'static str, &'static str, &'static str, f64);

/// A decoded `POST /synthesize`.
pub(crate) struct SynthRequest<'a> {
    /// The `.g` source.
    pub g: String,
    pub opts: PipelineOptions,
    /// The body as the client sent it.
    pub body: &'a [u8],
    /// The client's `X-Trace-Id`, when it parses.
    client: Option<TraceId>,
    nonce: u64,
}

impl SynthRequest<'_> {
    /// The request's trace id: the client's, or one derived from the
    /// run cache key (`0` until there is one) and the request nonce.
    pub fn trace(&self, key: u64) -> TraceId {
        self.client
            .unwrap_or_else(|| TraceId::derive(key, self.nonce))
    }
}

/// What a tier adds to the engine: `POST /synthesize` and its own
/// share of the ops surface.
pub(crate) trait Service: Send + Sync + 'static {
    /// Answers a well-formed `POST /synthesize`.
    fn synthesize(&self, request: &SynthRequest<'_>) -> Response;

    /// The tier's scalar counters and gauges.
    fn stats(&self) -> Vec<Stat>;

    /// `/stats` members beyond the scalars (dotted paths nest).
    fn stats_doc(&self) -> Vec<(&'static str, Json)>;

    /// `/metrics` families beyond the scalars.
    fn metrics(&self, w: &mut PromWriter);
}

/// One response: status, payload, its content type, the trace id to
/// echo back as `X-Trace-Id`, and — when a router proxied it — the
/// backend shard it came from.
pub(crate) struct Response {
    pub status: u16,
    pub content_type: String,
    pub body: Vec<u8>,
    pub trace: TraceId,
    /// `Some(shard)` on a proxied response (sent as `X-Backend`);
    /// `None` on one this tier answered itself (a router stamps those
    /// `X-Role: router`).
    pub backend: Option<usize>,
}

impl Response {
    pub fn json(status: u16, body: String, trace: TraceId) -> Response {
        Response {
            status,
            content_type: "application/json".to_string(),
            body: body.into_bytes(),
            trace,
            backend: None,
        }
    }
}

pub(crate) fn error_body(msg: &str) -> String {
    Json::obj(vec![("error", Json::Str(msg.to_string()))]).render()
}

/// An engine-originated error response under a derived trace id.
fn engine_error(state: &EngineState, status: u16, msg: &str) -> Response {
    let trace = TraceId::derive(0, state.req_seq.fetch_add(1, Ordering::Relaxed));
    Response::json(status, error_body(msg), trace)
}

/// Answers one request: a well-formed `POST /synthesize` goes to the
/// service, everything else is the same on both tiers.
fn route(state: &EngineState, svc: &dyn Service, request: &Request) -> Response {
    // Propagate a parseable client-supplied trace id; otherwise derive
    // one from a fresh nonce (`/synthesize` upgrades its derived id to
    // carry the run cache key once it has computed one).
    let nonce = state.req_seq.fetch_add(1, Ordering::Relaxed);
    let client = request.trace_id.as_deref().and_then(TraceId::parse);
    let trace = client.unwrap_or_else(|| TraceId::derive(0, nonce));
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/synthesize") => {
            state.stats.synth_requests.fetch_add(1, Ordering::Relaxed);
            match decode_request(&request.body) {
                Ok((g, opts)) => svc.synthesize(&SynthRequest {
                    g,
                    opts,
                    body: &request.body,
                    client,
                    nonce,
                }),
                Err(msg) => state.reject(400, &msg, trace),
            }
        }
        ("GET", "/stats") => Response::json(200, render_stats(state, svc), trace),
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4".to_string(),
            body: render_metrics(state, svc).into_bytes(),
            trace,
            backend: None,
        },
        ("GET", "/healthz") | ("POST", "/shutdown") => {
            Response::json(200, Json::Str("ok".into()).render(), trace)
        }
        (_, "/synthesize" | "/stats" | "/metrics" | "/healthz" | "/shutdown") => {
            state.reject(405, &format!("{} not allowed here", request.method), trace)
        }
        (_, path) => state.reject(404, &format!("no such endpoint: {path}"), trace),
    }
}

/// Sets the dotted member `path` of an object's member list, creating
/// intermediate objects on the way.
fn insert_member(members: &mut Vec<(String, Json)>, path: &str, value: Json) {
    let Some((head, rest)) = path.split_once('.') else {
        members.push((path.to_string(), value));
        return;
    };
    let at = match members.iter().position(|(key, _)| key == head) {
        Some(at) => at,
        None => {
            members.push((head.to_string(), Json::Obj(Vec::new())));
            members.len() - 1
        }
    };
    if let Json::Obj(inner) = &mut members[at].1 {
        insert_member(inner, rest, value);
    }
}

/// The `GET /stats` document: the tier's role and uptime, every scalar
/// of the engine and the service, then the service's own members.
fn render_stats(state: &EngineState, svc: &dyn Service) -> String {
    let role = if state.routing() { "router" } else { "backend" };
    let mut doc = vec![
        ("role".to_string(), Json::Str(role.to_string())),
        (
            "uptime_ms".to_string(),
            Json::Num(state.started.elapsed().as_secs_f64() * 1e3),
        ),
    ];
    for (member, _, value) in state.transport() {
        insert_member(&mut doc, member, Json::Num(value as f64));
    }
    for (member, _, _, value) in svc.stats() {
        insert_member(&mut doc, member, Json::Num(value));
    }
    for (member, value) in svc.stats_doc() {
        insert_member(&mut doc, member, value);
    }
    Json::Obj(doc).render()
}

/// The `GET /metrics` document: the same scalars as `/stats` as
/// Prometheus counters and gauges, the uptime and the transport latency
/// histograms (`_bucket`/`_sum`/`_count`, bounds in seconds), then the
/// service's own families.
fn render_metrics(state: &EngineState, svc: &dyn Service) -> String {
    let mut w = PromWriter::new();
    let prefix = state.family_prefix();
    for (member, help, value) in state.transport() {
        w.counter(&format!("{prefix}{member}_total"), help, value);
    }
    for (_, family, help, value) in svc.stats() {
        if family.ends_with("_total") {
            w.counter(family, help, value as u64);
        } else {
            w.gauge(family, help, value);
        }
    }
    w.gauge(
        &format!("{prefix}uptime_seconds"),
        "Seconds since the server started.",
        state.started.elapsed().as_secs_f64(),
    );
    w.histogram(
        &format!("{prefix}request_duration_seconds"),
        "Request service time, request parsed to response written.",
        &state.request_hist.snapshot(),
    );
    w.histogram(
        &format!("{prefix}queue_wait_seconds"),
        "Accepted-connection wait from accept-queue enqueue to worker pickup.",
        &state.queue_wait_hist.snapshot(),
    );
    svc.metrics(&mut w);
    w.finish()
}

/// A running engine: accept thread plus worker pool, serving `svc`.
pub(crate) struct Engine {
    state: Arc<EngineState>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Binds `state.cfg.addr` and spawns the accept thread plus worker
    /// pool (`threads == 0` resolves to available parallelism).
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn start<S: Service>(state: Arc<EngineState>, svc: Arc<S>) -> io::Result<Engine> {
        let listener = TcpListener::bind(&state.cfg.addr)?;
        let addr = listener.local_addr()?;
        let threads = match state.cfg.threads {
            0 => std::thread::available_parallelism().map_or(2, usize::from),
            n => n,
        };
        let acceptor = {
            let state = state.clone();
            std::thread::spawn(move || accept_loop(&state, &listener))
        };
        let workers = (0..threads)
            .map(|_| {
                let state = state.clone();
                let svc = svc.clone();
                std::thread::spawn(move || worker_loop(&state, &*svc))
            })
            .collect();
        Ok(Engine {
            state,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a client posts `/shutdown`.
    pub fn wait_for_shutdown(&self) {
        self.state.wait_for_shutdown(None);
    }

    /// Stops accepting and drains the pool.
    pub fn join(&mut self) {
        self.state.begin_shutdown(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Writes `response` with its `X-Trace-Id` and, on a router, the
/// header that tells a proxied response (`X-Backend`) from one the
/// router answered itself (`X-Role: router`).
fn write_to(
    state: &EngineState,
    out: &mut impl Write,
    response: &Response,
    close: bool,
) -> io::Result<()> {
    let trace = response.trace.to_string();
    let shard = response.backend.map(|shard| shard.to_string());
    let mut headers = vec![("X-Trace-Id", trace.as_str())];
    match &shard {
        Some(shard) => headers.push(("X-Backend", shard)),
        None if state.routing() => headers.push(("X-Role", "router")),
        None => {}
    }
    write_response_with(
        out,
        response.status,
        &response.content_type,
        &headers,
        &response.body,
        close,
    )
}

fn accept_loop(state: &EngineState, listener: &TcpListener) {
    loop {
        let Ok((mut conn, _)) = listener.accept() else {
            continue;
        };
        if state.stop.load(Ordering::SeqCst) {
            return;
        }
        let mut queue = state.queue.lock().unwrap();
        if queue.len() >= state.cfg.queue_depth {
            drop(queue);
            state.stats.shed.fetch_add(1, Ordering::Relaxed);
            let response = engine_error(state, 503, "server overloaded; retry later");
            let _ = write_to(state, &mut conn, &response, true);
        } else {
            queue.push_back((conn, Instant::now()));
            drop(queue);
            state.queue_cv.notify_one();
        }
    }
}

fn worker_loop(state: &EngineState, svc: &dyn Service) {
    loop {
        let conn = {
            let mut queue = state.queue.lock().unwrap();
            loop {
                if let Some(conn) = queue.pop_front() {
                    break Some(conn);
                }
                if state.stop.load(Ordering::SeqCst) {
                    break None;
                }
                queue = state.queue_cv.wait(queue).unwrap();
            }
        };
        match conn {
            Some((conn, enqueued)) => {
                state.queue_wait_hist.record(enqueued.elapsed());
                handle_connection(state, svc, conn);
            }
            None => return,
        }
    }
}

/// Serves one accepted socket for its whole keep-alive lifetime,
/// keeping it registered so shutdown can unpark an idle read.
fn handle_connection(state: &EngineState, svc: &dyn Service, stream: TcpStream) {
    state.stats.connections.fetch_add(1, Ordering::Relaxed);
    let id = state.conn_seq.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        state.conns.lock().unwrap().insert(id, clone);
    }
    serve_connection(state, svc, stream);
    state.conns.lock().unwrap().remove(&id);
}

/// Writes one response, counting (and reporting) a vanished client as
/// a write failure instead of a served request. Returns whether the
/// connection is still usable.
fn respond(state: &EngineState, conn: &Conn, response: &Response, close: bool) -> bool {
    match write_to(state, &mut conn.stream(), response, close) {
        Ok(()) => true,
        Err(_) => {
            state.stats.write_errors.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

fn serve_connection(state: &EngineState, svc: &dyn Service, stream: TcpStream) {
    let mut conn = Conn::new(stream);
    let max = state.cfg.max_requests_per_conn.max(1);
    for served in 1..=max {
        if state.stop.load(Ordering::SeqCst) {
            return;
        }
        let request = match conn.read_request(
            state.cfg.max_body_bytes,
            state.cfg.idle_timeout,
            state.cfg.request_timeout,
        ) {
            Ok(request) => request,
            Err(HttpError::Closed) => return, // peer done, or idle deadline
            Err(HttpError::Timeout) => {
                state.stats.request_timeouts.fetch_add(1, Ordering::Relaxed);
                let msg = format!(
                    "request not received within {:?}",
                    state.cfg.request_timeout
                );
                respond(state, &conn, &engine_error(state, 408, &msg), true);
                return;
            }
            Err(HttpError::Malformed(msg)) => {
                state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                // Framing is lost after a protocol violation: close.
                let msg = format!("malformed request: {msg}");
                respond(state, &conn, &engine_error(state, 400, &msg), true);
                return;
            }
            Err(HttpError::BodyTooLarge) => {
                state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                // The oversized body was never read off the socket, so
                // the next request cannot be framed: close.
                let msg = format!("body exceeds the {} byte limit", state.cfg.max_body_bytes);
                respond(state, &conn, &engine_error(state, 413, &msg), true);
                return;
            }
            Err(HttpError::Io) => return, // peer gone; nothing to answer
        };
        state.stats.requests.fetch_add(1, Ordering::Relaxed);
        let t_serve = Instant::now();
        let response = route(state, svc, &request);
        let shutdown_requested = request.method == "POST" && request.path == "/shutdown";
        let close = request.close
            || served == max
            || shutdown_requested
            || state.stop.load(Ordering::SeqCst);
        let usable = respond(state, &conn, &response, close);
        state.request_hist.record(t_serve.elapsed());
        if !usable {
            return;
        }
        if shutdown_requested {
            // Answer first, then take the service down.
            state.begin_shutdown(
                conn.local_addr()
                    .unwrap_or_else(|_| "127.0.0.1:0".parse().expect("literal socket address")),
            );
            return;
        }
        if close {
            return;
        }
    }
}
