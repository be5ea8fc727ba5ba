//! End-to-end router-tier tests over real sockets: consistent routing
//! that preserves fleet-wide single-flight coalescing, the `/stats`
//! and `/metrics` rollups, trace propagation across the hop, bounded
//! failover when a backend dies, and the N→N+1 reshard procedure
//! (journals replay anywhere; moved keys re-execute cleanly).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use reshuffle::{source_cache_key, PipelineOptions};
use reshuffle_bench::examples::{scaled_pipeline, TOGGLE_G, XYZ_G};
use reshuffle_obs::json::{self, Json};
use reshuffle_server::client::{exchange_once, ClientResponse};
use reshuffle_server::{Server, ServerConfig};

fn synth_body(g: &str) -> String {
    Json::obj(vec![("g", Json::Str(g.to_string()))]).render()
}

/// One `Connection: close` POST of `body` to `/synthesize`, with
/// optional extra header lines (`"Name: value\r\n"`).
fn post(addr: &str, body: &str, extra: &str) -> ClientResponse {
    let raw = format!(
        "POST /synthesize HTTP/1.1\r\nConnection: close\r\n{extra}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    exchange_once(addr, raw.as_bytes()).unwrap()
}

fn get(addr: &str, path: &str) -> ClientResponse {
    exchange_once(
        addr,
        format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .unwrap()
}

fn stats(addr: &str) -> Json {
    let response = get(addr, "/stats");
    assert_eq!(response.status, 200, "{}", response.body_str());
    json::parse(&response.body_str()).expect("stats must be valid JSON")
}

fn stat(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("missing numeric stat {key}: {}", doc.render()))
}

/// A per-test temp file path (no tempdir crate in the container).
fn temp_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "reshuffle-router-test-{}-{}-{tag}.cache",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ))
}

fn start_fleet(n: usize) -> (Vec<Server>, Server) {
    let backends: Vec<Server> = (0..n)
        .map(|i| Server::start(ServerConfig::new().with_shard_id(i as u64)).unwrap())
        .collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let router = Server::start(ServerConfig::new().with_route(addrs)).unwrap();
    (backends, router)
}

fn stop_fleet(backends: Vec<Server>, router: Server) {
    router.stop().unwrap();
    for backend in backends {
        backend.stop().unwrap();
    }
}

#[test]
fn identical_requests_route_to_one_backend_and_coalesce_fleet_wide() {
    let n = 8;
    let (backends, router) = start_fleet(2);
    let addr = router.addr().to_string();
    // A spec big enough that the pipeline takes real wall time, so
    // concurrent arrivals overlap the leader's run.
    let body = Arc::new(synth_body(&scaled_pipeline(7)));
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let (addr, body, barrier) = (addr.clone(), body.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                post(&addr, &body, "")
            })
        })
        .collect();
    let responses: Vec<ClientResponse> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every request succeeded with the identical payload, and — the
    // routing invariant — every one was proxied to the same shard.
    let mut results = Vec::new();
    let mut shards = Vec::new();
    for response in &responses {
        assert_eq!(response.status, 200, "{}", response.body_str());
        let doc = json::parse(&response.body_str()).unwrap();
        results.push(doc.get("result").expect("missing result").render());
        shards.push(
            response
                .header("x-backend")
                .expect("proxied response lost X-Backend")
                .to_string(),
        );
    }
    results.dedup();
    shards.dedup();
    assert_eq!(results.len(), 1, "responses diverged across the fleet");
    assert_eq!(shards.len(), 1, "identical requests split across shards");

    // Fleet-wide single flight: the rollup's totals prove exactly one
    // pipeline execution happened anywhere.
    let doc = stats(&addr);
    let totals = doc.get("totals").expect("no totals in rollup");
    assert_eq!(stat(totals, "executed"), 1.0, "{}", doc.render());
    assert_eq!(
        stat(totals, "coalesced") + stat(totals.get("cache").unwrap(), "hits"),
        (n - 1) as f64,
        "{}",
        doc.render()
    );
    assert_eq!(stat(totals, "synth_requests"), n as f64);
    stop_fleet(backends, router);
}

#[test]
fn stats_rollup_sums_backend_counters_and_names_shards() {
    let (backends, router) = start_fleet(2);
    let addr = router.addr().to_string();
    let specs = [XYZ_G, TOGGLE_G, &scaled_pipeline(2)];
    for spec in &specs {
        // Twice each: one execution, one cache hit, spread by key.
        assert_eq!(post(&addr, &synth_body(spec), "").status, 200);
        assert_eq!(post(&addr, &synth_body(spec), "").status, 200);
    }

    let doc = stats(&addr);
    assert_eq!(doc.get("role").and_then(Json::as_str), Some("router"));
    assert_eq!(stat(&doc, "synth_requests"), 2.0 * specs.len() as f64);

    // The routed array attributes every forward to its shard, summing
    // to the router's own request count.
    let routed = doc.get("routed").and_then(Json::items).unwrap();
    assert_eq!(routed.len(), 2);
    let forwarded: f64 = routed.iter().map(|b| stat(b, "routed")).sum();
    assert_eq!(forwarded, 2.0 * specs.len() as f64);

    // Each backend document carries its role and shard_id, and the
    // totals equal the per-backend sums, member by member.
    let docs = doc.get("backends").and_then(Json::items).unwrap();
    assert_eq!(docs.len(), 2);
    for (i, backend) in docs.iter().enumerate() {
        assert_eq!(backend.get("role").and_then(Json::as_str), Some("backend"));
        assert_eq!(stat(backend, "shard_id"), i as f64);
    }
    let totals = doc.get("totals").unwrap();
    for key in ["synth_requests", "executed", "coalesced"] {
        let sum: f64 = docs.iter().map(|b| stat(b, key)).sum();
        assert_eq!(stat(totals, key), sum, "{key}: {}", doc.render());
    }
    let hit_sum: f64 = docs
        .iter()
        .map(|b| stat(b.get("cache").unwrap(), "hits"))
        .sum();
    assert_eq!(stat(totals.get("cache").unwrap(), "hits"), hit_sum);
    assert_eq!(stat(totals, "executed"), specs.len() as f64);
    assert_eq!(hit_sum, specs.len() as f64);
    stop_fleet(backends, router);
}

#[test]
fn metrics_rollup_merges_fleet_families_and_validates() {
    let (backends, router) = start_fleet(2);
    let addr = router.addr().to_string();
    let specs = [XYZ_G, TOGGLE_G, &scaled_pipeline(2)];
    for spec in &specs {
        assert_eq!(post(&addr, &synth_body(spec), "").status, 200);
    }

    let response = get(&addr, "/metrics");
    assert_eq!(response.status, 200);
    let text = response.body_str();
    let summary = reshuffle_obs::validate(&text)
        .unwrap_or_else(|e| panic!("invalid rollup exposition: {e}\n{text}"));
    // Router-local families, including the labelled per-backend ones.
    for family in [
        "reshuffle_router_requests_total",
        "reshuffle_router_retries_total",
        "reshuffle_routed_total",
        "reshuffle_backend_errors_total",
        "reshuffle_backend_up",
        "reshuffle_router_request_duration_seconds",
    ] {
        assert!(summary.has_family(family), "missing {family}:\n{text}");
    }
    // Merged backend families keep their original names, so one scrape
    // of the router reads like one big backend...
    for family in [
        "reshuffle_synth_requests_total",
        "reshuffle_synth_executed_total",
        "reshuffle_cache_hits_total",
        "reshuffle_request_duration_seconds",
        "reshuffle_stage_duration_seconds",
    ] {
        assert!(
            summary.has_family(family),
            "missing merged {family}:\n{text}"
        );
    }
    // ...with fleet-total values: three executions happened somewhere.
    assert!(
        text.contains(&format!("reshuffle_synth_requests_total {}", specs.len())),
        "{text}"
    );
    assert!(
        text.contains(&format!("reshuffle_synth_executed_total {}", specs.len())),
        "{text}"
    );
    // Per-process identity gauges must not be summed into nonsense.
    assert!(!text.contains("reshuffle_uptime_seconds"), "{text}");
    assert!(!text.contains("reshuffle_shard_id"), "{text}");
    stop_fleet(backends, router);
}

#[test]
fn a_client_trace_id_spans_router_and_backend() {
    use reshuffle_server::{RingSink, SinkHandle};
    let backend_ring = Arc::new(RingSink::new(4096));
    let backend = Server::start(
        ServerConfig::new()
            .with_trace_level(1)
            .with_trace_sink(SinkHandle::new(backend_ring.clone())),
    )
    .unwrap();
    let router_ring = Arc::new(RingSink::new(4096));
    let router = Server::start(
        ServerConfig::new()
            .with_route(vec![backend.addr().to_string()])
            .with_trace_level(1)
            .with_trace_sink(SinkHandle::new(router_ring.clone())),
    )
    .unwrap();
    let addr = router.addr().to_string();

    let supplied = "00000000000000ab00000000000000cd";
    let response = post(
        &addr,
        &synth_body(XYZ_G),
        &format!("X-Trace-Id: {supplied}\r\n"),
    );
    assert_eq!(response.status, 200, "{}", response.body_str());
    // The response echoes the supplied id back through the hop...
    assert_eq!(response.header("x-trace-id"), Some(supplied));
    assert_eq!(response.header("x-backend"), Some("0"));
    // ...and both tiers logged spans under it: the router's route span
    // and the backend's request span share one trace.
    let router_lines = router_ring.lines();
    assert!(
        router_lines
            .iter()
            .any(|l| l.contains("\"name\":\"route\"") && l.contains(supplied)),
        "no route span under the trace: {router_lines:#?}"
    );
    let backend_lines = backend_ring.lines();
    assert!(
        backend_lines
            .iter()
            .any(|l| l.contains("\"name\":\"request\"") && l.contains(supplied)),
        "no backend request span under the trace: {backend_lines:#?}"
    );
    router.stop().unwrap();
    backend.stop().unwrap();
}

#[test]
fn route_mode_refuses_serve_only_settings() {
    let route = || ServerConfig::new().with_route(vec!["127.0.0.1:9".to_string()]);
    for cfg in [
        ServerConfig::new().with_route(Vec::new()),
        route().with_cache_path(temp_path("route")),
        route().with_cache_capacity(Some(8)),
        route().with_shard_id(0),
    ] {
        let err = Server::start(cfg).err().expect("route mode accepted it");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
}

#[test]
fn a_dead_backend_fails_over_to_a_bounded_503() {
    // Reserve an address that is guaranteed dead: bind, read the port,
    // drop the listener.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let live = Server::start(ServerConfig::new()).unwrap();
    let router = Server::start(
        ServerConfig::new()
            .with_route(vec![live.addr().to_string(), dead])
            .with_connect_timeout(Duration::from_millis(200))
            .with_health_interval(Duration::from_millis(100)),
    )
    .unwrap();
    let addr = router.addr().to_string();

    // Sort candidate specs by shard so each side of the table gets one.
    let opts = PipelineOptions::default();
    let candidates = [
        XYZ_G.to_string(),
        TOGGLE_G.to_string(),
        scaled_pipeline(2),
        scaled_pipeline(3),
        scaled_pipeline(4),
    ];
    let to_shard = |shard: u64| {
        candidates
            .iter()
            .find(|g| source_cache_key(g, &opts).unwrap() % 2 == shard)
            .unwrap_or_else(|| panic!("no candidate routes to shard {shard}"))
    };

    // The live shard serves normally.
    let response = post(&addr, &synth_body(to_shard(0)), "");
    assert_eq!(response.status, 200, "{}", response.body_str());
    assert_eq!(response.header("x-backend"), Some("0"));

    // The dead shard fails over to a router-stamped 503 within the
    // retry budget — bounded, not a hang on the 30 s request budget.
    let t0 = Instant::now();
    let response = post(&addr, &synth_body(to_shard(1)), "");
    let elapsed = t0.elapsed();
    assert_eq!(response.status, 503, "{}", response.body_str());
    assert_eq!(
        response.header("x-role"),
        Some("router"),
        "failover 503 must be distinguishable from a backend shed"
    );
    assert!(response.header("x-backend").is_none());
    assert!(
        elapsed < Duration::from_secs(5),
        "failover took {elapsed:?}; the retry budget is not bounding it"
    );

    // The probe loop has marked the backend down by now; the routing
    // table reports it and the gauge exposes it.
    std::thread::sleep(Duration::from_millis(300));
    assert!(router.shards().unwrap().backend(0).is_up());
    assert!(!router.shards().unwrap().backend(1).is_up());
    let text = get(&addr, "/metrics").body_str();
    assert!(
        text.contains(&format!(
            "reshuffle_backend_up{{backend=\"{}\"}} 0",
            router.shards().unwrap().backend(1).addr()
        )),
        "{text}"
    );
    assert_eq!(router.shards().unwrap().backend(1).errors(), 1);
    router.stop().unwrap();
    live.stop().unwrap();
}

#[test]
fn resharding_from_two_to_three_backends_replays_journals() {
    let paths: Vec<std::path::PathBuf> = (0..3).map(|i| temp_path(&format!("shard{i}"))).collect();
    let opts = PipelineOptions::default();
    let specs = vec![
        XYZ_G.to_string(),
        TOGGLE_G.to_string(),
        scaled_pipeline(2),
        scaled_pipeline(3),
    ];

    // Generation 1: two backends, filled through the router, then a
    // simulated crash of the whole fleet — caches live on as journals.
    let backends: Vec<Server> = (0..2)
        .map(|i| {
            Server::start(
                ServerConfig::new()
                    .with_shard_id(i as u64)
                    .with_cache_path(&paths[i]),
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let router = Server::start(ServerConfig::new().with_route(addrs)).unwrap();
    let addr = router.addr().to_string();
    let mut firsts = Vec::new();
    for spec in &specs {
        let response = post(&addr, &synth_body(spec), "");
        assert_eq!(response.status, 200, "{}", response.body_str());
        firsts.push(json::parse(&response.body_str()).unwrap());
    }
    router.stop().unwrap();
    for backend in backends {
        backend.abort();
    }

    // Generation 2: three backends. The two old cache paths recover
    // their journals wherever they land in the new table; the third
    // starts cold.
    let backends: Vec<Server> = (0..3)
        .map(|i| {
            Server::start(
                ServerConfig::new()
                    .with_shard_id(i as u64)
                    .with_cache_path(&paths[i]),
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let router = Server::start(ServerConfig::new().with_route(addrs)).unwrap();
    let addr = router.addr().to_string();

    // Re-request the whole corpus: zero errors, identical payloads.
    // Keys whose shard assignment survived the reshard (key % 2 ==
    // key % 3, cache path unchanged) replay as journal hits; moved
    // keys re-execute cleanly on their new shard and refill it.
    for (spec, first) in specs.iter().zip(&firsts) {
        let key = source_cache_key(spec, &opts).unwrap();
        let expect_hit = key % 2 == key % 3;
        let response = post(&addr, &synth_body(spec), "");
        assert_eq!(response.status, 200, "{}", response.body_str());
        assert_eq!(
            response.header("x-backend"),
            Some(format!("{}", key % 3).as_str())
        );
        let doc = json::parse(&response.body_str()).unwrap();
        assert_eq!(
            doc.get("cache_hit"),
            Some(&Json::Bool(expect_hit)),
            "key {key} (shard {} -> {}): {}",
            key % 2,
            key % 3,
            response.body_str()
        );
        assert_eq!(
            doc.get("result").unwrap().render(),
            first.get("result").unwrap().render(),
            "synthesis drifted across the reshard"
        );
    }
    // The corpus moved at least one key in each direction, or this
    // test proves nothing; with these four specs both cases occur.
    let keys: Vec<u64> = specs
        .iter()
        .map(|g| source_cache_key(g, &opts).unwrap())
        .collect();
    assert!(
        keys.iter().any(|k| k % 2 == k % 3) && keys.iter().any(|k| k % 2 != k % 3),
        "corpus exercises only one side of the reshard: {keys:?}"
    );
    stop_fleet(backends, router);
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
}
