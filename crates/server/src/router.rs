//! The fingerprint-sharded router tier
//! ([`ServerConfig::with_route`](crate::ServerConfig::with_route),
//! `reshuffle-server --route backend1,backend2,…`) accepts the same
//! `POST /synthesize` surface as a backend, computes the content-addressed cache key locally
//! ([`reshuffle::source_cache_key`] — parse only, no pipeline), and
//! forwards the request to backend `key % N` over pooled keep-alive
//! connections, streaming the response through verbatim.
//!
//! **Routing invariant.** The key is a pure function of the spec's
//! canonical fingerprint and the option trail, so identical requests
//! always land on the same backend — which is exactly what preserves
//! per-shard single-flight coalescing (concurrent identical requests
//! meet in one backend's flight table and execute once, fleet-wide)
//! and cache locality (a spec's journal entry lives on one shard).
//!
//! **Failover semantics.** Forwards retry within a bounded attempt
//! budget (healing the benign keep-alive close race); when a backend
//! stays unreachable the router answers `503` itself — stamped
//! `X-Role: router` to distinguish it from a backend's own shed `503`
//! — and a background probe loop holds the backend's
//! `reshuffle_backend_up` gauge at 0 until its `/healthz` listener is
//! reachable again (a busy backend that accepts but answers slowly
//! stays up; only a vanished peer is down).
//! Proxied responses instead carry `X-Backend: <shard>` and the
//! backend's own payload, byte-for-byte. A client `X-Trace-Id` is
//! forwarded, so router and backend spans share one trace.
//!
//! **Resharding.** Journals replay anywhere, so `N → N+1` is an
//! operational procedure, not a migration: stop the fleet, restart
//! backends under the new list (each recovers its own journal), point
//! the router at the new list. Keys that moved shards re-execute once
//! (a clean miss) and refill; keys that stayed hit their journal.
//!
//! `GET /stats` and `GET /metrics` are fleet rollups: the router
//! scrapes every backend, merges counters by sum and histograms via
//! [`HistSnapshot::merge`](reshuffle_obs::HistSnapshot::merge), and
//! adds its own `reshuffle_router_*`, `reshuffle_routed_total{backend}`,
//! `reshuffle_backend_errors_total{backend}` and
//! `reshuffle_backend_up{backend}` families.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use reshuffle::source_cache_key;
use reshuffle_obs::json::{self, Json};
use reshuffle_obs::prom::OwnedLabels;
use reshuffle_obs::{parse as prom_parse, FieldVal, PromDoc, PromWriter, TraceId, Tracer};

use crate::client::{exchange_with_retry, ClientConn};
use crate::engine::{error_body, Engine, EngineState, Response, Service, Stat, SynthRequest};
use crate::shard::{Backend, ShardTable};
use crate::{Server, ServerConfig, Tier};

/// The routing service behind the shared engine.
pub(crate) struct RouteService {
    engine: Arc<EngineState>,
    /// The routing table (health and per-backend counters).
    pub table: ShardTable,
    /// Extra dials beyond the first per forward — the keep-alive close
    /// race being healed, or a dying backend being retried.
    retries: AtomicU64,
    tracer: Tracer,
}

/// Validates a route-mode configuration, then binds and spawns the
/// engine plus the background `/healthz` probe loop.
///
/// # Errors
///
/// An empty backend list or a serve-only setting (`InvalidInput`), and
/// bind failures.
pub(crate) fn start(cfg: ServerConfig, tracer: Tracer) -> io::Result<Server> {
    let invalid = |msg: &str| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    let backends = cfg.route.clone().unwrap_or_default();
    if backends.is_empty() {
        return invalid("router needs at least one backend");
    }
    if cfg.cache_path.is_some() || cfg.cache_capacity.is_some() || cfg.shard_id.is_some() {
        return invalid(
            "the cache path, cache capacity and shard id apply to serve mode \
             — the router holds no cache",
        );
    }
    let state = Arc::new(EngineState::new(cfg));
    let svc = Arc::new(RouteService {
        engine: state.clone(),
        table: ShardTable::new(backends),
        retries: AtomicU64::new(0),
        tracer,
    });
    let engine = Engine::start(state, svc.clone())?;
    let health = {
        let svc = svc.clone();
        std::thread::spawn(move || health_loop(&svc))
    };
    let tier = Tier::Route(svc, Some(health));
    Ok(Server { engine, tier })
}

impl Service for RouteService {
    fn synthesize(&self, request: &SynthRequest<'_>) -> Response {
        // Parse just enough to compute the key the backend will derive:
        // the spec and the option trail. Malformed requests never reach
        // a backend.
        let key = match source_cache_key(&request.g, &request.opts) {
            Ok(key) => key,
            Err(e) => {
                let body = error_body(&format!("parse: {e}"));
                return Response::json(422, body, request.trace(0));
            }
        };
        let shard = self.table.route(key);
        let trace = request.trace(key);
        let root = self.tracer.root(trace);
        let sp = root.span("route");

        let response = self.forward(shard, request.body, trace);
        sp.end(&[
            ("backend", FieldVal::U64(shard as u64)),
            ("status", FieldVal::U64(u64::from(response.status))),
        ]);
        response
    }

    fn stats(&self) -> Vec<Stat> {
        vec![(
            "retries",
            "reshuffle_router_retries_total",
            "Extra backend dials beyond the first per forward.",
            self.retries.load(Ordering::Relaxed) as f64,
        )]
    }

    /// Per-backend attribution, each backend's own `/stats` document,
    /// and a recursive numeric sum of those documents under `"totals"`.
    fn stats_doc(&self) -> Vec<(&'static str, Json)> {
        let routed = Json::Arr(
            self.table
                .backends()
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    Json::obj(vec![
                        ("backend", Json::Num(i as f64)),
                        ("addr", Json::Str(b.addr().to_string())),
                        ("up", Json::Bool(b.is_up())),
                        ("routed", Json::Num(b.routed() as f64)),
                        ("errors", Json::Num(b.errors() as f64)),
                    ])
                })
                .collect(),
        );
        let mut docs: Vec<Json> = Vec::new();
        for backend in self.table.backends() {
            let doc = self
                .scrape(backend.addr(), "/stats")
                .filter(|(status, _)| *status == 200)
                .and_then(|(_, body)| json::parse(&body).ok());
            docs.push(doc.unwrap_or(Json::Null));
        }
        let mut totals = Json::Obj(Vec::new());
        for doc in docs.iter().filter(|d| !matches!(d, Json::Null)) {
            sum_numeric_into(&mut totals, doc);
        }
        vec![
            ("backends_configured", Json::Num(self.table.len() as f64)),
            ("routed", routed),
            ("backends", Json::Arr(docs)),
            ("totals", totals),
        ]
    }

    /// The per-backend families plus every backend family merged across
    /// the fleet — counters and gauges summed per label set, histograms
    /// rebuilt from their exposition and merged with
    /// [`HistSnapshot::merge`](reshuffle_obs::HistSnapshot::merge) —
    /// under the backends' original family names, so one scrape of the
    /// router sees fleet totals in the same vocabulary as one backend.
    fn metrics(&self, w: &mut PromWriter) {
        let backends = self.table.backends();
        let labels: Vec<[(&str, &str); 1]> =
            backends.iter().map(|b| [("backend", b.addr())]).collect();
        let per_backend = |value: fn(&Backend) -> u64| -> Vec<(&[(&str, &str)], u64)> {
            let values = backends.iter().map(value);
            labels.iter().map(|l| l.as_slice()).zip(values).collect()
        };
        w.counter_family(
            "reshuffle_routed_total",
            "Requests forwarded per backend.",
            &per_backend(Backend::routed),
        );
        w.counter_family(
            "reshuffle_backend_errors_total",
            "Forwards that exhausted their retries, per backend.",
            &per_backend(Backend::errors),
        );
        let up: Vec<(&[(&str, &str)], f64)> = per_backend(|b| u64::from(b.is_up()))
            .into_iter()
            .map(|(l, up)| (l, up as f64))
            .collect();
        w.gauge_family(
            "reshuffle_backend_up",
            "Backend health as of the last probe or forward (1 = up).",
            &up,
        );

        // Merge the fleet: scrape every backend, keep the docs that
        // parse, and emit each family of the first doc summed across
        // all of them.
        let docs: Vec<PromDoc> = self
            .table
            .backends()
            .iter()
            .filter_map(|b| self.scrape(b.addr(), "/metrics"))
            .filter(|(status, _)| *status == 200)
            .filter_map(|(_, body)| prom_parse(&body).ok())
            .collect();
        let Some(first) = docs.first() else {
            return;
        };
        for family in &first.families {
            // Per-process identity gauges do not sum meaningfully.
            if family.name == "reshuffle_uptime_seconds" || family.name == "reshuffle_shard_id" {
                continue;
            }
            let (name, help) = (&family.name, &family.help);
            let fleet = || docs.iter().filter_map(|doc| doc.family(name));
            match family.ty.as_str() {
                "counter" | "gauge" => {
                    let samples = fleet()
                        .flat_map(|f| &f.samples)
                        .map(|s| (s.labels.clone(), s.value));
                    let series = fold_by_labels(samples, |sum, v| *sum += v);
                    let refs = label_refs(&series);
                    let rows = refs
                        .iter()
                        .map(Vec::as_slice)
                        .zip(series.iter().map(|s| s.1));
                    if family.ty == "counter" {
                        let rows: Vec<_> = rows.map(|(l, v)| (l, v as u64)).collect();
                        w.counter_family(name, help, &rows);
                    } else {
                        w.gauge_family(name, help, &rows.collect::<Vec<_>>());
                    }
                }
                "histogram" => {
                    // A document whose buckets are off the log2 grid
                    // is skipped.
                    let snaps = fleet().filter_map(|f| f.histogram_snapshots().ok());
                    let series = fold_by_labels(snaps.flatten(), |sum, snap| sum.merge(&snap));
                    let refs = label_refs(&series);
                    let snaps = series.iter().map(|s| &s.1);
                    let rows: Vec<_> = refs.iter().map(Vec::as_slice).zip(snaps).collect();
                    w.histogram_family(name, help, &rows);
                }
                _ => {}
            }
        }
    }
}

impl RouteService {
    /// Forwards the raw body to shard `shard`, reusing a pooled
    /// keep-alive connection when one is idle, with the configured
    /// attempt budget. The backend sees the client's trace id, so
    /// spans share the trace across the hop.
    fn forward(&self, shard: usize, body: &[u8], trace: TraceId) -> Response {
        let cfg = &self.engine.cfg;
        let backend = self.table.backend(shard);
        let head = format!(
            "POST /synthesize HTTP/1.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nX-Trace-Id: {trace}\r\n\r\n",
            body.len()
        );
        let mut request = head.into_bytes();
        request.extend_from_slice(body);

        let mut slot = backend.take_conn();
        let pooled = slot.is_some();
        let dial = || {
            ClientConn::connect_timeout(backend.addr(), cfg.connect_timeout, cfg.request_timeout)
        };
        match exchange_with_retry(&mut slot, dial, &request, cfg.retries) {
            Ok((response, dialed)) => {
                let extra_dials = (dialed + usize::from(pooled)).saturating_sub(1);
                if extra_dials > 0 {
                    self.retries
                        .fetch_add(extra_dials as u64, Ordering::Relaxed);
                }
                backend.note_routed();
                backend.set_up(true);
                if let Some(conn) = slot {
                    backend.put_conn(conn);
                }
                let content_type = response
                    .header("content-type")
                    .unwrap_or("application/json")
                    .to_string();
                Response {
                    status: response.status,
                    content_type,
                    body: response.body,
                    trace,
                    backend: Some(shard),
                }
            }
            Err(_) => {
                backend.note_error();
                backend.set_up(false);
                let msg = format!("backend {} (shard {shard}) unavailable", backend.addr());
                Response::json(503, error_body(&msg), trace)
            }
        }
    }

    /// One `Connection: close` GET against a backend, under the dial
    /// and read deadlines.
    fn scrape(&self, addr: &str, path: &str) -> Option<(u16, String)> {
        let cfg = &self.engine.cfg;
        let mut conn =
            ClientConn::connect_timeout(addr, cfg.connect_timeout, cfg.request_timeout).ok()?;
        let request = format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n");
        let response = conn.exchange(request.as_bytes()).ok()?;
        Some((response.status, response.body_str()))
    }
}

/// Adds `add`'s numeric leaves into `acc`, recursing through objects;
/// non-numeric leaves (strings, bools, arrays, nulls) are skipped —
/// totals carry only what sums meaningfully.
fn sum_numeric_into(acc: &mut Json, add: &Json) {
    let (Json::Obj(amem), Json::Obj(bmem)) = (acc, add) else {
        return;
    };
    for (key, value) in bmem {
        match value {
            Json::Num(n) => {
                if let Some((_, slot)) = amem.iter_mut().find(|(k, _)| k == key) {
                    if let Json::Num(total) = slot {
                        *total += n;
                    }
                } else {
                    amem.push((key.clone(), Json::Num(*n)));
                }
            }
            Json::Obj(_) => {
                if !amem.iter().any(|(k, _)| k == key) {
                    amem.push((key.clone(), Json::Obj(Vec::new())));
                }
                let slot = &mut amem.iter_mut().find(|(k, _)| k == key).unwrap().1;
                sum_numeric_into(slot, value);
            }
            _ => {}
        }
    }
}

/// Folds `(labels, value)` pairs into one entry per label set (label
/// order does not matter), in first-appearance order.
fn fold_by_labels<T>(
    pairs: impl Iterator<Item = (OwnedLabels, T)>,
    mut fold: impl FnMut(&mut T, T),
) -> Vec<(OwnedLabels, T)> {
    let mut out: Vec<(OwnedLabels, T)> = Vec::new();
    let mut index: HashMap<OwnedLabels, usize> = HashMap::new();
    for (labels, value) in pairs {
        let mut key = labels.clone();
        key.sort();
        match index.get(&key) {
            Some(&at) => fold(&mut out[at].1, value),
            None => {
                index.insert(key, out.len());
                out.push((labels, value));
            }
        }
    }
    out
}

fn label_refs<T>(series: &[(OwnedLabels, T)]) -> Vec<Vec<(&str, &str)>> {
    series
        .iter()
        .map(|(labels, _)| {
            labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect()
        })
        .collect()
}

/// Probes every backend's `/healthz` each interval, flipping the
/// per-backend `up` flag; exits when shutdown begins.
fn health_loop(svc: &RouteService) {
    loop {
        for backend in svc.table.backends() {
            let up = probe(svc, backend.addr());
            backend.set_up(up);
        }
        if svc
            .engine
            .wait_for_shutdown(Some(svc.engine.cfg.health_interval))
        {
            return;
        }
    }
}

fn probe(svc: &RouteService, addr: &str) -> bool {
    let dial = svc.engine.cfg.connect_timeout;
    let Ok(mut conn) = ClientConn::connect_timeout(addr, dial, dial) else {
        return false;
    };
    match conn.exchange(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n") {
        Ok(response) => response.status == 200,
        // The listener accepted and the request queued, but no worker
        // answered within the deadline: that backend is *busy*, not
        // dead — on a small worker pool even one idle keep-alive
        // connection can pin every worker for a while. Only a vanished
        // peer (refused, reset, EOF) marks it down.
        Err(e) => matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ),
    }
}
