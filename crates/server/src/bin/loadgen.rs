//! Load driver for `reshuffle-server`: replay corpus plus
//! `scaled_pipeline(n)` traffic at a chosen concurrency, with
//! client-side latency histograms per response phase and a `/metrics`
//! scrape validated against the Prometheus text grammar.
//!
//! ```sh
//! loadgen --requests 128 --concurrency 8 --scale 6           # self-hosted
//! loadgen --addr 127.0.0.1:7878 --requests 64                # external
//! loadgen --requests 64 --no-keep-alive                      # one conn/request
//! loadgen --json --baseline                                  # stable JSON report
//! ```
//!
//! Without `--addr` the driver starts an in-process server, so one
//! command load-tests a fresh build. Each worker drives one
//! **persistent keep-alive connection** (reconnecting when the server
//! closes it — `Connection: close`, per-connection request cap, or a
//! shed); `--no-keep-alive` falls back to one connection per request.
//!
//! Every response is classified into a phase — `executed` (the request
//! ran the pipeline), `cache_hit`, `coalesced` (served by another
//! request's in-flight run), or `shed` (503) — and its latency recorded
//! in a per-phase histogram; the text report prints p50/p95/p99/max per
//! phase. Failures are split into **connection errors** (connect or
//! socket failures after the one reconnect retry) and **HTTP errors**
//! (unexpected statuses), reported and counted separately.
//!
//! Driving a **router** (`--route` mode) needs no extra flags: the
//! driver recognizes the router's response headers and adds a `routed`
//! breakdown — per-backend request counts from `X-Backend`, and the
//! shed split between `router_shed` (503 stamped `X-Role: router`: the
//! router's own queue or an unreachable backend) and `backend_shed` (a
//! backend's 503 proxied through). Direct backend runs never carry
//! those headers, so the committed `--baseline` report keeps its exact
//! schema.
//!
//! `--json` emits the report as JSON. `--baseline` additionally makes
//! it machine-stable for committing and diffing in CI: wall-clock
//! fields are zeroed and the scheduling-dependent `cache_hit` /
//! `coalesced` split is merged into one `cached` phase (their *sum* is
//! deterministic; which side of the race each request lands on is not).
//!
//! Exits nonzero on any connection error, HTTP error, or an invalid
//! `/metrics` document.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use reshuffle_bench::examples::{self, scaled_pipeline};
use reshuffle_obs::Json;
use reshuffle_obs::{validate, HistSnapshot, Histogram};
use reshuffle_server::client::{exchange_once, exchange_with_retry, ClientConn, ClientResponse};
use reshuffle_server::{Server, ServerConfig};

struct Args {
    addr: Option<String>,
    requests: usize,
    concurrency: usize,
    scale: usize,
    keep_alive: bool,
    json: bool,
    baseline: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        addr: None,
        requests: 64,
        concurrency: 8,
        scale: 6,
        keep_alive: true,
        json: false,
        baseline: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => out.addr = Some(value()?.clone()),
            "--requests" => out.requests = value()?.parse().map_err(|e| format!("{e}"))?,
            "--concurrency" => out.concurrency = value()?.parse().map_err(|e| format!("{e}"))?,
            "--scale" => out.scale = value()?.parse().map_err(|e| format!("{e}"))?,
            "--no-keep-alive" => out.keep_alive = false,
            "--json" => out.json = true,
            "--baseline" => out.baseline = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if out.scale < 1 || out.scale > 31 {
        return Err("--scale must be in 1..=31".into());
    }
    Ok(out)
}

/// Response phases the driver tells apart (classified from status and
/// the response body's `cache_hit`/`coalesced` flags).
const PHASES: usize = 4;
const PHASE_NAMES: [&str; PHASES] = ["executed", "cache_hit", "coalesced", "shed"];
const EXECUTED: usize = 0;
const CACHE_HIT: usize = 1;
const COALESCED: usize = 2;
const SHED: usize = 3;

/// Router-tier attribution, populated only when responses carry the
/// router's headers (`X-Role: router` on router-originated responses,
/// `X-Backend` on proxied ones).
#[derive(Default)]
struct RoutedTotals {
    seen: bool,
    /// 503s the router answered itself (queue shed, backend down).
    router_shed: u64,
    /// Backend 503s proxied through the router.
    backend_shed: u64,
    /// Responses per `X-Backend` shard index.
    backends: BTreeMap<String, u64>,
}

/// Everything the worker threads count and measure, shared by `Arc`.
#[derive(Default)]
struct Totals {
    next: AtomicUsize,
    /// Connect/socket failures (after the one reconnect retry).
    conn_errors: AtomicUsize,
    /// Responses with an unexpected HTTP status.
    http_errors: AtomicUsize,
    reconnects: AtomicUsize,
    /// Client-observed latency per phase.
    phases: [Histogram; PHASES],
    routed: Mutex<RoutedTotals>,
}

impl Totals {
    /// Attributes one response to the router tier, when its headers say
    /// a router produced or proxied it.
    fn observe_route(&self, response: &ClientResponse) {
        let from_router = response.header("x-role") == Some("router");
        let backend = response.header("x-backend");
        if !from_router && backend.is_none() {
            return;
        }
        let mut routed = self.routed.lock().unwrap();
        routed.seen = true;
        if let Some(shard) = backend {
            *routed.backends.entry(shard.to_string()).or_insert(0) += 1;
            if response.status == 503 {
                routed.backend_shed += 1;
            }
        } else if response.status == 503 {
            routed.router_shed += 1;
        }
    }
}

fn post_body(g: &str, reduce: bool) -> String {
    let mut members = vec![("g", Json::Str(g.to_string()))];
    if reduce {
        members.push(("options", Json::obj(vec![("reduce", Json::obj(vec![]))])));
    }
    let body = Json::obj(members).render();
    format!(
        "POST /synthesize HTTP/1.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Which phase a 200 response belongs to, from the flags the server
/// prefixes every `/synthesize` payload with.
fn classify_ok(body: &str) -> usize {
    if body.starts_with("{\"cache_hit\":true") {
        CACHE_HIT
    } else if body.contains("\"coalesced\":true") {
        COALESCED
    } else {
        EXECUTED
    }
}

/// Drives requests `next..total` over a persistent connection,
/// reconnecting when the server closes it; with `keep_alive` off,
/// every request gets a fresh connection.
fn drive(addr: &str, corpus: &[String], totals: &Totals, total: usize, keep_alive: bool) {
    let mut conn: Option<ClientConn> = None;
    let mut connected_before = false;
    loop {
        let i = totals.next.fetch_add(1, Ordering::Relaxed);
        if i >= total {
            return;
        }
        let request = &corpus[i % corpus.len()];
        let t0 = Instant::now();
        // One reconnect retry covers the benign race where the server
        // closed an idle connection as we were writing to it; connect
        // failures surface immediately.
        let outcome = exchange_with_retry(
            &mut conn,
            || ClientConn::connect(addr),
            request.as_bytes(),
            2,
        );
        let elapsed = t0.elapsed();
        match outcome {
            Ok((response, dialed)) => {
                if connected_before {
                    totals.reconnects.fetch_add(dialed, Ordering::Relaxed);
                } else if dialed > 0 {
                    connected_before = true;
                    totals.reconnects.fetch_add(dialed - 1, Ordering::Relaxed);
                }
                totals.observe_route(&response);
                match response.status {
                    200 => totals.phases[classify_ok(&response.body_str())].record(elapsed),
                    503 => totals.phases[SHED].record(elapsed),
                    status => {
                        eprintln!("request {i}: unexpected {status}: {}", response.body_str());
                        totals.http_errors.fetch_add(1, Ordering::Relaxed);
                        conn = None;
                    }
                }
                if !keep_alive {
                    conn = None;
                }
            }
            Err(e) => {
                eprintln!("request {i}: connection error: {e}");
                totals.conn_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// One phase's report row: its count plus client-side percentiles.
fn phase_json(name: &str, snap: &HistSnapshot, baseline: bool) -> Json {
    let us = |v: u64| Json::Num(if baseline { 0.0 } else { v as f64 });
    Json::obj(vec![
        ("phase", Json::Str(name.to_string())),
        ("count", Json::Num(snap.count as f64)),
        ("p50_us", us(snap.quantile(0.50))),
        ("p95_us", us(snap.quantile(0.95))),
        ("p99_us", us(snap.quantile(0.99))),
        ("max_us", us(snap.max_micros)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Self-host unless pointed at an external server.
    let own = if args.addr.is_none() {
        match Server::start(ServerConfig::new()) {
            Ok(server) => Some(server),
            Err(e) => {
                eprintln!("error: cannot start server: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr = args
        .addr
        .clone()
        .unwrap_or_else(|| own.as_ref().unwrap().addr().to_string());

    // Traffic mix: complete corpus entries plus one scaled pipeline —
    // highly repetitive, the shape the cache and coalescing serve.
    // `mfig1` is insertion-unresolvable by design; it needs the
    // reduction stage to synthesize at all.
    let mut corpus: Vec<String> = examples::ALL
        .iter()
        .filter(|(name, _)| !examples::PARTIAL.contains(name))
        .map(|(name, src)| post_body(src, *name == "mfig1"))
        .collect();
    corpus.push(post_body(&scaled_pipeline(args.scale), false));
    let corpus = Arc::new(corpus);

    let totals = Arc::new(Totals::default());
    let t0 = Instant::now();
    let threads: Vec<_> = (0..args.concurrency.max(1))
        .map(|_| {
            let (corpus, totals, addr) = (corpus.clone(), totals.clone(), addr.clone());
            let (total, keep_alive) = (args.requests, args.keep_alive);
            std::thread::spawn(move || drive(&addr, &corpus, &totals, total, keep_alive))
        })
        .collect();
    for t in threads {
        let _ = t.join();
    }
    let wall = t0.elapsed();

    let stats = match exchange_once(&addr, b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n") {
        Ok(r) if r.status == 200 => r.body_str(),
        other => {
            eprintln!("error: GET /stats failed: {other:?}");
            return ExitCode::FAILURE;
        }
    };
    // Scrape `/metrics` and hold it to the Prometheus text grammar —
    // every loadgen run doubles as an exposition-format check.
    let metrics_ok =
        match exchange_once(&addr, b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n") {
            Ok(r) if r.status == 200 => match validate(&r.body_str()) {
                Ok(_) => true,
                Err(e) => {
                    eprintln!("error: /metrics failed validation: {e}");
                    false
                }
            },
            other => {
                eprintln!("error: GET /metrics failed: {other:?}");
                false
            }
        };

    let snaps: Vec<HistSnapshot> = totals.phases.iter().map(Histogram::snapshot).collect();
    let ok: u64 = snaps[..SHED].iter().map(|s| s.count).sum();
    let shed = snaps[SHED].count;
    let conn_errors = totals.conn_errors.load(Ordering::Relaxed);
    let http_errors = totals.http_errors.load(Ordering::Relaxed);
    let routed = std::mem::take(&mut *totals.routed.lock().unwrap());

    if args.json {
        // `--baseline` keeps only machine-stable fields: wall-clock
        // values zero out, and cache_hit/coalesced — whose split is a
        // scheduling race — merge into one `cached` phase.
        let phases = if args.baseline {
            let mut cached = snaps[CACHE_HIT].clone();
            cached.merge(&snaps[COALESCED]);
            vec![
                phase_json("executed", &snaps[EXECUTED], true),
                phase_json("cached", &cached, true),
                phase_json("shed", &snaps[SHED], true),
            ]
        } else {
            PHASE_NAMES
                .iter()
                .zip(&snaps)
                .map(|(name, snap)| phase_json(name, snap, false))
                .collect()
        };
        let mut members = vec![
            ("requests", Json::Num(args.requests as f64)),
            ("concurrency", Json::Num(args.concurrency as f64)),
            ("scale", Json::Num(args.scale as f64)),
            ("keep_alive", Json::Bool(args.keep_alive)),
            (
                "wall_ms",
                Json::Num(if args.baseline {
                    0.0
                } else {
                    (wall.as_secs_f64() * 1e3).round()
                }),
            ),
            ("ok", Json::Num(ok as f64)),
            ("shed", Json::Num(shed as f64)),
            (
                "reconnects",
                Json::Num(if args.baseline {
                    0.0
                } else {
                    totals.reconnects.load(Ordering::Relaxed) as f64
                }),
            ),
            ("conn_errors", Json::Num(conn_errors as f64)),
            ("http_errors", Json::Num(http_errors as f64)),
            ("phases", Json::Arr(phases)),
        ];
        // Only when a router answered: direct backend runs keep the
        // exact report schema the committed baseline pins.
        if routed.seen {
            members.push((
                "routed",
                Json::obj(vec![
                    ("router_shed", Json::Num(routed.router_shed as f64)),
                    ("backend_shed", Json::Num(routed.backend_shed as f64)),
                    (
                        "backends",
                        Json::Arr(
                            routed
                                .backends
                                .iter()
                                .map(|(shard, count)| {
                                    Json::obj(vec![
                                        ("backend", Json::Str(shard.clone())),
                                        ("requests", Json::Num(*count as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        println!("{}", Json::obj(members).render());
    } else {
        println!(
            "{} requests in {:.1} ms ({:.0} req/s), {} shed, {} reconnects ({})",
            args.requests,
            wall.as_secs_f64() * 1e3,
            args.requests as f64 / wall.as_secs_f64(),
            shed,
            totals.reconnects.load(Ordering::Relaxed),
            if args.keep_alive {
                "keep-alive"
            } else {
                "connection-per-request"
            },
        );
        for (name, snap) in PHASE_NAMES.iter().zip(&snaps) {
            if snap.count == 0 {
                continue;
            }
            println!(
                "{name:<10} {:>5} requests  p50 {:>8} µs  p95 {:>8} µs  p99 {:>8} µs  max {:>8} µs",
                snap.count,
                snap.quantile(0.50),
                snap.quantile(0.95),
                snap.quantile(0.99),
                snap.max_micros,
            );
        }
        if routed.seen {
            let per_backend: Vec<String> = routed
                .backends
                .iter()
                .map(|(shard, count)| format!("backend {shard}: {count}"))
                .collect();
            println!(
                "routed: {} (router_shed {}, backend_shed {})",
                per_backend.join(", "),
                routed.router_shed,
                routed.backend_shed,
            );
        }
        println!("stats: {stats}");
    }

    if let Some(server) = own {
        if let Err(e) = server.stop() {
            eprintln!("error during shutdown: {e}");
            return ExitCode::FAILURE;
        }
    }
    if conn_errors > 0 || http_errors > 0 {
        eprintln!("error: {conn_errors} connection errors, {http_errors} HTTP errors");
        return ExitCode::FAILURE;
    }
    if !metrics_ok {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
