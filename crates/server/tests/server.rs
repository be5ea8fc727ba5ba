//! End-to-end service tests over real sockets: single-flight
//! coalescing, cache persistence across a restart, journal replay
//! after a crash, keep-alive connection reuse, the eviction bound, the
//! 4xx surface, and the `/stats` document (validated with the
//! hand-rolled JSON parser).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use reshuffle_bench::examples::{scaled_pipeline, PCREQ_G, TOGGLE_G, XYZ_G};
use reshuffle_obs::json::{self, Json};
use reshuffle_server::client::{exchange_once, ClientResponse};
use reshuffle_server::{ClientConn, Server, ServerConfig};

/// One exchange over a fresh connection; `raw` should ask the server
/// to close.
fn exchange(addr: SocketAddr, raw: &str) -> ClientResponse {
    exchange_once(&addr.to_string(), raw.as_bytes()).unwrap()
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let response = exchange(addr, &raw);
    (response.status, response.body_str())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let response = exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n"),
    );
    (response.status, response.body_str())
}

/// A persistent keep-alive client over the crate's shared HTTP
/// framing ([`ClientConn`]), so one socket carries many requests.
struct Client {
    conn: ClientConn,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        Client {
            conn: ClientConn::connect(&addr.to_string()).unwrap(),
        }
    }

    fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String, bool)> {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let response = self.conn.exchange(raw.as_bytes())?;
        Ok((response.status, response.body_str(), response.close))
    }
}

fn synth_body(g: &str) -> String {
    Json::obj(vec![("g", Json::Str(g.to_string()))]).render()
}

fn stats(addr: SocketAddr) -> Json {
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200, "{body}");
    json::parse(&body).expect("stats must be valid JSON")
}

fn stat(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("missing numeric stat {key}: {}", doc.render()))
}

fn cache_stat(doc: &Json, key: &str) -> f64 {
    stat(doc.get("cache").expect("missing cache object"), key)
}

/// A per-test temp file path (no tempdir crate in the container).
fn temp_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "reshuffle-server-test-{}-{}-{tag}.cache",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ))
}

#[test]
fn concurrent_identical_requests_coalesce_into_one_execution() {
    let n = 8;
    let server = Server::start(
        ServerConfig::new()
            .with_threads(n)
            .with_queue_depth(4 * n)
            .with_request_timeout(Duration::from_secs(120)),
    )
    .unwrap();
    let addr = server.addr();
    // A spec big enough that the pipeline takes real wall time, so
    // concurrent arrivals overlap the leader's run.
    let body = Arc::new(synth_body(&scaled_pipeline(7)));
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let (body, barrier) = (body.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                post(addr, "/synthesize", &body)
            })
        })
        .collect();
    let responses: Vec<(u16, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every request succeeded, and all carried the identical payload.
    let mut results = Vec::new();
    for (status, body) in &responses {
        assert_eq!(*status, 200, "{body}");
        let doc = json::parse(body).unwrap();
        results.push(doc.get("result").expect("missing result").render());
    }
    results.dedup();
    assert_eq!(results.len(), 1, "coalesced responses diverged");

    // Exactly one underlying pipeline execution. A racer arriving
    // after the leader published re-runs — and hits the cache — so
    // every non-executing request shows up as either a coalesced wait
    // or a cache hit.
    let doc = stats(addr);
    assert_eq!(stat(&doc, "executed"), 1.0, "{}", doc.render());
    assert_eq!(
        stat(&doc, "coalesced") + cache_stat(&doc, "hits"),
        (n - 1) as f64,
        "{}",
        doc.render()
    );
    assert_eq!(stat(&doc, "synth_requests"), n as f64);
    assert_eq!(stat(&doc, "timeouts"), 0.0);
    assert_eq!(stat(&doc, "in_flight"), 0.0);
    server.stop().unwrap();
}

#[test]
fn cache_survives_a_restart_and_replays_as_a_hit() {
    let path = temp_path("persist");
    let body = synth_body(XYZ_G);

    // First server: a real execution, snapshot saved on stop.
    let server = Server::start(ServerConfig::new().with_cache_path(&path)).unwrap();
    let (status, first) = post(server.addr(), "/synthesize", &body);
    assert_eq!(status, 200, "{first}");
    let first = json::parse(&first).unwrap();
    assert_eq!(first.get("cache_hit"), Some(&Json::Bool(false)));
    server.stop().unwrap();

    // Second server: same key, O(1) hit, zero executions.
    let server = Server::start(ServerConfig::new().with_cache_path(&path)).unwrap();
    let doc = stats(server.addr());
    assert_eq!(cache_stat(&doc, "entries"), 1.0, "snapshot not loaded");
    let (status, second) = post(server.addr(), "/synthesize", &body);
    assert_eq!(status, 200, "{second}");
    let second = json::parse(&second).unwrap();
    assert_eq!(
        second.get("cache_hit"),
        Some(&Json::Bool(true)),
        "replay missed the persisted cache"
    );
    // Identical fingerprint × option key and identical payload across
    // the restart.
    assert_eq!(
        first.get("result").unwrap().render(),
        second.get("result").unwrap().render()
    );
    let doc = stats(server.addr());
    assert_eq!(stat(&doc, "executed"), 0.0, "restart re-ran the pipeline");
    server.stop().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bounded_cache_reports_evictions() {
    let server = Server::start(ServerConfig::new().with_cache_capacity(Some(1))).unwrap();
    let addr = server.addr();
    assert_eq!(post(addr, "/synthesize", &synth_body(XYZ_G)).0, 200);
    assert_eq!(post(addr, "/synthesize", &synth_body(TOGGLE_G)).0, 200);
    let doc = stats(addr);
    assert_eq!(cache_stat(&doc, "entries"), 1.0, "{}", doc.render());
    assert_eq!(cache_stat(&doc, "capacity"), 1.0);
    assert!(cache_stat(&doc, "evictions") >= 1.0);
    server.stop().unwrap();
}

#[test]
fn bad_requests_get_4xx() {
    let server = Server::start(ServerConfig::new().with_max_body_bytes(256)).unwrap();
    let addr = server.addr();

    // Not JSON at all.
    let (status, body) = post(addr, "/synthesize", "this is not json");
    assert_eq!(status, 400, "{body}");
    // JSON without the "g" member.
    let (status, _) = post(addr, "/synthesize", "{\"spec\": 1}");
    assert_eq!(status, 400);
    // Unknown option.
    let (status, body) = post(
        addr,
        "/synthesize",
        "{\"g\": \"x\", \"options\": {\"turbo\": true}}",
    );
    assert_eq!(status, 400, "{body}");
    // Well-formed request, broken `.g` source: a pipeline-level 422.
    let (status, body) = post(addr, "/synthesize", &synth_body(".model broken\n.end\n"));
    assert_eq!(status, 422, "{body}");
    // Oversized body (limit is 256 bytes here).
    let (status, body) = post(addr, "/synthesize", &synth_body(&scaled_pipeline(4)));
    assert_eq!(status, 413, "{body}");
    // Unknown path, wrong method.
    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(get(addr, "/synthesize").0, 405);
    // Raw protocol garbage.
    assert_eq!(exchange(addr, "EHLO not-http\r\n\r\n").status, 400);

    let doc = stats(addr);
    assert!(stat(&doc, "bad_requests") >= 6.0, "{}", doc.render());
    assert_eq!(stat(&doc, "executed"), 0.0);
    server.stop().unwrap();
}

/// One raw exchange over a fresh connection. The 10 s read timeout
/// outlasts the server's 5 s idle deadline, so a server that never
/// answers fails the test instead of hanging it.
fn raw_exchange(addr: SocketAddr, raw: &[u8]) -> ClientResponse {
    let read = Duration::from_secs(10);
    let mut conn =
        ClientConn::connect_timeout(&addr.to_string(), Duration::from_secs(1), read).unwrap();
    conn.exchange(raw).unwrap()
}

#[test]
fn an_endless_request_line_gets_400_at_the_head_cap() {
    let server = Server::start(ServerConfig::new()).unwrap();
    let addr = server.addr();
    // 32 KiB of request line and no newline: the head cap (16 KiB) must
    // end the read, well before the 5 s idle deadline would.
    let mut raw = b"GET /".to_vec();
    raw.resize(32 * 1024, b'a');
    let t0 = Instant::now();
    let response = raw_exchange(addr, &raw);
    assert_eq!(response.status, 400, "{}", response.body_str());
    assert!(
        response.body_str().contains("header section too large"),
        "{}",
        response.body_str()
    );
    assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
    server.stop().unwrap();
}

#[test]
fn a_non_utf8_header_gets_400() {
    let server = Server::start(ServerConfig::new()).unwrap();
    let mut raw = b"GET /healthz HTTP/1.1\r\nX-Note: caf".to_vec();
    raw.push(0xFF);
    raw.extend_from_slice(b"\r\nConnection: close\r\n\r\n");
    let response = raw_exchange(server.addr(), &raw);
    assert_eq!(response.status, 400, "{}", response.body_str());
    assert!(
        response.body_str().contains("not UTF-8"),
        "{}",
        response.body_str()
    );
    server.stop().unwrap();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let n = 5;
    let server = Server::start(ServerConfig::new()).unwrap();
    let addr = server.addr();
    let body = synth_body(XYZ_G);
    let mut client = Client::connect(addr);
    for i in 0..n {
        let (status, response, close) = client.post("/synthesize", &body).unwrap();
        assert_eq!(status, 200, "request {i}: {response}");
        assert!(!close, "request {i}: server closed a keep-alive connection");
        let doc = json::parse(&response).unwrap();
        assert_eq!(doc.get("cache_hit"), Some(&Json::Bool(i > 0)));
    }
    drop(client);

    // n synthesize requests plus this /stats request, but only two
    // accepted connections: the reused one and the /stats one.
    let doc = stats(addr);
    assert_eq!(stat(&doc, "synth_requests"), n as f64);
    assert_eq!(stat(&doc, "connections"), 2.0, "{}", doc.render());
    assert!(stat(&doc, "connections") < stat(&doc, "requests"));
    assert_eq!(stat(&doc, "executed"), 1.0);
    server.stop().unwrap();
}

#[test]
fn per_connection_request_cap_closes_the_socket() {
    let server = Server::start(ServerConfig::new().with_max_requests_per_conn(2)).unwrap();
    let addr = server.addr();
    let body = synth_body(XYZ_G);
    let mut client = Client::connect(addr);
    let (status, _, close) = client.post("/synthesize", &body).unwrap();
    assert_eq!((status, close), (200, false));
    let (status, _, close) = client.post("/synthesize", &body).unwrap();
    assert_eq!(status, 200);
    assert!(close, "cap-reaching response must announce the close");
    // The server hung up after the cap: the next exchange sees EOF.
    assert!(client.post("/synthesize", &body).is_err());
    server.stop().unwrap();
}

#[test]
fn stalled_request_times_out_with_408() {
    let server =
        Server::start(ServerConfig::new().with_request_timeout(Duration::from_millis(200)))
            .unwrap();
    let addr = server.addr();
    // Head promises a body that never arrives: the absolute deadline
    // fires even though the socket stays open.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"POST /synthesize HTTP/1.1\r\nContent-Length: 5\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "expected 408, got: {response}"
    );
    assert!(response.contains("Connection: close"), "{response}");
    let doc = stats(addr);
    assert_eq!(stat(&doc, "request_timeouts"), 1.0, "{}", doc.render());
    server.stop().unwrap();
}

#[test]
fn a_half_sent_request_line_gets_408_naming_the_idle_deadline() {
    let server =
        Server::start(ServerConfig::new().with_idle_timeout(Duration::from_millis(200))).unwrap();
    let addr = server.addr();
    // The request line never ends: the idle deadline lapses on a
    // request that has begun. The 408 names that deadline, not the
    // request budget (30 s by default).
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET /healthz HTT").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "expected 408, got: {response}"
    );
    assert!(response.contains("within 200ms"), "{response}");
    server.stop().unwrap();
}

#[test]
fn journal_replay_survives_a_crash_with_zero_reexecutions() {
    let path = temp_path("journal");
    let journal = path.with_extension("journal");
    let bodies = [synth_body(XYZ_G), synth_body(TOGGLE_G)];

    // First server: two real executions, then a simulated kill -9 —
    // no shutdown, no snapshot write.
    let server = Server::start(ServerConfig::new().with_cache_path(&path)).unwrap();
    let mut firsts = Vec::new();
    for body in &bodies {
        let (status, response) = post(server.addr(), "/synthesize", body);
        assert_eq!(status, 200, "{response}");
        firsts.push(json::parse(&response).unwrap());
    }
    let doc = stats(server.addr());
    assert_eq!(cache_stat(&doc, "journal_appends"), 2.0, "{}", doc.render());
    assert_eq!(cache_stat(&doc, "journal_errors"), 0.0);
    assert!(journal.exists(), "journal not on disk while serving");
    server.abort();
    assert!(!path.exists(), "abort must not write a snapshot");

    // Second server: recovery = journal replay alone. The whole corpus
    // is 100% cache hits — zero pipeline re-executions.
    let server = Server::start(ServerConfig::new().with_cache_path(&path)).unwrap();
    let doc = stats(server.addr());
    assert_eq!(cache_stat(&doc, "entries"), 2.0, "journal not replayed");
    for (body, first) in bodies.iter().zip(&firsts) {
        let (status, response) = post(server.addr(), "/synthesize", body);
        assert_eq!(status, 200, "{response}");
        let replay = json::parse(&response).unwrap();
        assert_eq!(
            replay.get("cache_hit"),
            Some(&Json::Bool(true)),
            "replay missed the journaled cache"
        );
        assert_eq!(
            first.get("result").unwrap().render(),
            replay.get("result").unwrap().render(),
            "journaled synthesis drifted across the crash"
        );
    }
    let doc = stats(server.addr());
    assert_eq!(stat(&doc, "executed"), 0.0, "restart re-ran the pipeline");

    // Clean shutdown compacts: snapshot present, journal gone.
    server.stop().unwrap();
    assert!(path.exists(), "compaction wrote no snapshot");
    assert!(!journal.exists(), "compaction left the journal behind");

    // Third server: runs from the compacted snapshot alone.
    let server = Server::start(ServerConfig::new().with_cache_path(&path)).unwrap();
    let doc = stats(server.addr());
    assert_eq!(cache_stat(&doc, "entries"), 2.0, "snapshot not loaded");
    server.stop().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn an_expanded_synthesis_survives_a_crash_and_replays_as_a_hit() {
    // Expansion plus CSC insertion rewires the spec's places; the
    // journaled STG must still parse back, or the restart fails.
    let path = temp_path("expand");
    let body = Json::obj(vec![
        ("g", Json::Str(PCREQ_G.to_string())),
        ("options", Json::obj(vec![("expand", Json::Bool(true))])),
    ])
    .render();
    let server = Server::start(ServerConfig::new().with_cache_path(&path)).unwrap();
    let (status, first) = post(server.addr(), "/synthesize", &body);
    assert_eq!(status, 200, "{first}");
    server.abort();

    let server = Server::start(ServerConfig::new().with_cache_path(&path))
        .expect("the journal of an expanded synthesis must recover");
    let (status, second) = post(server.addr(), "/synthesize", &body);
    assert_eq!(status, 200, "{second}");
    let (first, second) = (json::parse(&first).unwrap(), json::parse(&second).unwrap());
    assert_eq!(second.get("cache_hit"), Some(&Json::Bool(true)));
    assert_eq!(
        first.get("result").unwrap().render(),
        second.get("result").unwrap().render(),
        "the replayed synthesis drifted"
    );
    server.stop().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn metrics_serves_valid_prometheus_with_latency_histograms() {
    let server = Server::start(ServerConfig::new()).unwrap();
    let addr = server.addr();
    let body = synth_body(XYZ_G);
    // One miss (executed) and one hit, so both the real stages and the
    // cache_hit pseudo-stage have samples.
    assert_eq!(post(addr, "/synthesize", &body).0, 200);
    assert_eq!(post(addr, "/synthesize", &body).0, 200);

    let response = exchange(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(response.status, 200);
    assert!(
        response
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "{:?}",
        response.headers
    );
    let text = response.body_str();
    let summary = reshuffle_obs::validate(&text)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    for family in [
        "reshuffle_requests_total",
        "reshuffle_synth_requests_total",
        "reshuffle_cache_hits_total",
        "reshuffle_prereduce_places_removed_total",
        "reshuffle_prereduce_transitions_removed_total",
        "reshuffle_lattice_prefix_hits_total",
        "reshuffle_request_duration_seconds",
        "reshuffle_queue_wait_seconds",
        "reshuffle_flight_wait_seconds",
        "reshuffle_stage_duration_seconds",
    ] {
        assert!(summary.has_family(family), "missing {family}:\n{text}");
    }
    assert!(text.contains("reshuffle_synth_requests_total 2"), "{text}");
    assert!(text.contains("reshuffle_cache_hits_total 1"), "{text}");
    // The hit run's lookup latency landed in the stage histograms.
    assert!(
        text.contains("reshuffle_stage_duration_seconds_count{stage=\"cache_hit\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("reshuffle_stage_duration_seconds_count{stage=\"synthesize\"} 1"),
        "{text}"
    );
    // Every served connection waited on the accept queue: the two
    // synthesize posts plus this scrape's own connection.
    assert!(
        text.contains("reshuffle_queue_wait_seconds_count 3"),
        "{text}"
    );

    // The cache_hit pseudo-stage is visible in /stats too.
    let doc = stats(addr);
    let stages = doc.get("stages").and_then(Json::items).unwrap();
    let hit = stages
        .iter()
        .find(|e| e.get("stage").and_then(Json::as_str) == Some("cache_hit"))
        .unwrap_or_else(|| panic!("no cache_hit stage in /stats: {}", doc.render()));
    assert_eq!(stat(hit, "runs"), 1.0);
    server.stop().unwrap();
}

#[test]
fn every_response_echoes_a_trace_id_and_spans_share_it() {
    use reshuffle_server::{RingSink, SinkHandle};
    let ring = Arc::new(RingSink::new(4096));
    let server = Server::start(
        // Any nonzero trace level switches tracing on.
        ServerConfig::new()
            .with_trace_level(2)
            .with_trace_sink(SinkHandle::new(ring.clone())),
    )
    .unwrap();
    let addr = server.addr();

    // A synthesize without a client id: the response invents one...
    let body = synth_body(XYZ_G);
    let response = exchange(
        addr,
        &format!(
            "POST /synthesize HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(response.status, 200);
    let trace = response
        .header("x-trace-id")
        .expect("no X-Trace-Id on /synthesize");
    assert_eq!(trace.len(), 32, "{trace}");
    assert!(trace.bytes().all(|b| b.is_ascii_hexdigit()), "{trace}");
    // ...and every span the request emitted — the request root, the
    // pipeline stages, and the state-graph build — carries that id.
    let lines = ring.lines();
    for name in [
        "request",
        "stage.expand",
        "stage.synthesize",
        "bfs.markings",
    ] {
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("\"name\":\"{name}\""))),
            "no {name} span in {lines:#?}"
        );
    }
    for line in &lines {
        assert!(line.contains(trace), "span outside the trace: {line}");
    }

    // A client-supplied parseable id is propagated verbatim.
    let supplied = "00000000000000ab00000000000000cd";
    let before = ring.lines().len();
    let response = exchange(
        addr,
        &format!(
            "POST /synthesize HTTP/1.1\r\nConnection: close\r\nX-Trace-Id: {supplied}\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-trace-id"), Some(supplied));
    let lines = ring.lines();
    assert!(lines.len() > before, "hit run emitted no spans");
    for line in &lines[before..] {
        assert!(line.contains(supplied), "span outside the trace: {line}");
    }
    // The hit run's spans include the honest cache.lookup probe.
    assert!(
        lines[before..]
            .iter()
            .any(|l| l.contains("\"name\":\"cache.lookup\"") && l.contains("\"hit\":1")),
        "{lines:#?}"
    );

    // Non-synthesize endpoints echo an id too.
    let response = exchange(addr, "GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(
        response.header("x-trace-id").is_some(),
        "{:?}",
        response.headers
    );
    server.stop().unwrap();
}

#[test]
fn options_select_pipeline_behavior() {
    let server = Server::start(ServerConfig::new()).unwrap();
    let addr = server.addr();
    // Same spec, different options: distinct keys, both executed.
    let default_body = synth_body(XYZ_G);
    let gc_body = Json::obj(vec![
        ("g", Json::Str(XYZ_G.to_string())),
        (
            "options",
            Json::obj(vec![("style", Json::Str("gc".to_string()))]),
        ),
    ])
    .render();
    let (status, a) = post(addr, "/synthesize", &default_body);
    assert_eq!(status, 200, "{a}");
    let (status, b) = post(addr, "/synthesize", &gc_body);
    assert_eq!(status, 200, "{b}");
    let (a, b) = (json::parse(&a).unwrap(), json::parse(&b).unwrap());
    assert_eq!(b.get("cache_hit"), Some(&Json::Bool(false)));
    assert_ne!(
        a.get("result").unwrap().get("key"),
        b.get("result").unwrap().get("key"),
        "distinct options must use distinct cache keys"
    );
    let doc = stats(addr);
    assert_eq!(stat(&doc, "executed"), 2.0);
    // Stage timings accumulated for the executed runs.
    let stages = doc.get("stages").and_then(Json::items).unwrap();
    assert!(!stages.is_empty(), "no stage timings: {}", doc.render());
    for entry in stages {
        assert!(entry.get("stage").and_then(Json::as_str).is_some());
        assert!(stat(entry, "runs") >= 1.0);
        assert!(stat(entry, "wall_ms") >= 0.0);
    }
    server.stop().unwrap();
}

#[test]
fn an_off_grid_reduce_delay_is_a_422_and_the_worker_survives() {
    // One worker: a request that killed it would leave nothing serving.
    let server = Server::start(ServerConfig::new().with_threads(1)).unwrap();
    let addr = server.addr().to_string();
    let ask = |raw: String| {
        ClientConn::connect_timeout(&addr, Duration::from_secs(5), Duration::from_secs(10))
            .and_then(|mut conn| conn.exchange(raw.as_bytes()))
            .unwrap_or_else(|e| panic!("no answer within 10 s: {e}"))
    };
    let reduce = Json::obj(vec![("input_delay", Json::Num(0.3))]);
    let body = Json::obj(vec![
        ("g", Json::Str(XYZ_G.to_string())),
        ("options", Json::obj(vec![("reduce", reduce)])),
    ])
    .render();
    let response = ask(format!(
        "POST /synthesize HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    ));
    assert_eq!(response.status, 422, "{}", response.body_str());
    assert!(
        response.body_str().contains("input_delay"),
        "{}",
        response.body_str()
    );
    let health = ask("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n".to_string());
    assert_eq!(health.status, 200, "{}", health.body_str());
    server.stop().unwrap();
}

#[test]
fn stats_stage_rows_equal_the_metrics_stage_histograms() {
    let server = Server::start(ServerConfig::new()).unwrap();
    let addr = server.addr();
    // An executed run and a hit: expand, resolve, synthesize and
    // cache_hit (the server parses the spec itself).
    for _ in 0..2 {
        let (status, body) = post(addr, "/synthesize", &synth_body(XYZ_G));
        assert_eq!(status, 200, "{body}");
    }
    let doc = stats(addr);
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let series = |suffix: &str, stage: &str| -> f64 {
        let name = format!("reshuffle_stage_duration_seconds_{suffix}{{stage=\"{stage}\"}} ");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name.as_str()))
            .unwrap_or_else(|| panic!("no {name}in /metrics:\n{metrics}"))
            .parse()
            .unwrap()
    };
    let stages = doc.get("stages").and_then(Json::items).unwrap();
    assert!(stages.len() >= 4, "{}", doc.render());
    for row in stages {
        let stage = row.get("stage").and_then(Json::as_str).unwrap();
        assert_eq!(stat(row, "runs"), series("count", stage), "{stage} runs");
        let (wall_ms, sum_ms) = (stat(row, "wall_ms"), series("sum", stage) * 1e3);
        assert!(
            (wall_ms - sum_ms).abs() <= 1e-9 * sum_ms.max(1.0),
            "{stage}: /stats wall_ms {wall_ms} != /metrics sum {sum_ms} ms"
        );
    }
    server.stop().unwrap();
}
