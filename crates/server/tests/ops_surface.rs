//! Pins the operator-facing surface of both tiers — a backend, and a
//! router in front of two backends — under one fixed request script:
//! one miss, one hit, one 404, one 405 and one `/healthz`. For each
//! tier it checks the status codes, the `X-Trace-Id`, `X-Role` and
//! `X-Backend` headers, every member path of `GET /stats`, and every
//! `(family, type, label set)` of `GET /metrics`. Values are left to
//! the behavioural suites; this one catches a renamed, dropped or
//! added counter, label or header on either tier.

use std::collections::BTreeSet;

use reshuffle_bench::examples::XYZ_G;
use reshuffle_obs::json::{self, Json};
use reshuffle_server::client::{exchange_once, ClientResponse};
use reshuffle_server::{Server, ServerConfig};

fn request(addr: &str, method: &str, path: &str, body: &str) -> ClientResponse {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    exchange_once(addr, raw.as_bytes()).unwrap()
}

/// Runs the fixed script against `addr`: one `status X-Role X-Backend`
/// line per step (`-` when absent, `#` for a shard). Every response
/// must echo a well-formed `X-Trace-Id`, and proxied responses must
/// all come from one shard.
fn run_script(addr: &str) -> Vec<String> {
    let synth = Json::obj(vec![("g", Json::Str(XYZ_G.to_string()))]).render();
    let script = [
        ("POST", "/synthesize", synth.as_str()),
        ("POST", "/synthesize", synth.as_str()),
        ("GET", "/nope", ""),
        ("GET", "/synthesize", ""),
        ("GET", "/healthz", ""),
    ];
    let mut seen = Vec::new();
    let mut shards = BTreeSet::new();
    for (i, (method, path, body)) in script.into_iter().enumerate() {
        let response = request(addr, method, path, body);
        if i < 2 {
            let doc = json::parse(&response.body_str()).unwrap();
            assert_eq!(doc.get("cache_hit"), Some(&Json::Bool(i == 1)), "step {i}");
        }
        let trace = response.header("x-trace-id").unwrap_or_default();
        let hex = trace.len() == 32 && trace.bytes().all(|b| b.is_ascii_hexdigit());
        assert!(hex, "step {i}: X-Trace-Id {trace:?}");
        let backend = response.header("x-backend");
        shards.extend(backend.map(str::to_string));
        let role = response.header("x-role").unwrap_or("-");
        let shard = backend.map_or("-", |_| "#");
        seen.push(format!("{} {role} {shard}", response.status));
    }
    assert!(shards.len() <= 1, "split across shards: {shards:?}");
    seen
}

/// Every member path of a JSON document: object members joined with
/// `.`, array elements collapsed to `[]`.
fn member_paths(doc: &Json, prefix: &str, out: &mut BTreeSet<String>) {
    match doc {
        Json::Obj(members) => {
            for (key, value) in members {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                out.insert(path.clone());
                member_paths(value, &path, out);
            }
        }
        Json::Arr(items) => {
            for item in items {
                member_paths(item, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

fn stats_paths(addr: &str) -> Vec<String> {
    let response = request(addr, "GET", "/stats", "");
    assert_eq!(response.status, 200);
    let mut paths = BTreeSet::new();
    member_paths(&json::parse(&response.body_str()).unwrap(), "", &mut paths);
    paths.into_iter().collect()
}

/// One `family type {label set}…` line per family of the exposition,
/// `le` dropped and each backend address replaced by its shard index.
fn metric_families(addr: &str, backends: &[String]) -> Vec<String> {
    let response = request(addr, "GET", "/metrics", "");
    assert_eq!(response.status, 200);
    let doc = reshuffle_obs::parse(&response.body_str()).unwrap();
    let mut out = BTreeSet::new();
    for family in &doc.families {
        let mut label_sets = BTreeSet::new();
        for sample in &family.samples {
            let labels: Vec<String> = sample
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| match backends.iter().position(|b| b == v) {
                    Some(i) => format!("{k}=#{i}"),
                    None => format!("{k}={v}"),
                })
                .collect();
            label_sets.insert(format!("{{{}}}", labels.join(",")));
        }
        let label_sets: Vec<String> = label_sets.into_iter().collect();
        let (name, ty) = (&family.name, &family.ty);
        out.insert(format!("{name} {ty} {}", label_sets.join(" ")));
    }
    out.into_iter().collect()
}

/// `own` plus `more`, sorted.
fn sorted(own: &[&str], more: impl Iterator<Item = String>) -> Vec<String> {
    let mut all: BTreeSet<String> = own.iter().map(|s| s.to_string()).collect();
    all.extend(more);
    all.into_iter().collect()
}

const BACKEND_STATS: &[&str] = &[
    "bad_requests",
    "cache",
    "cache.capacity",
    "cache.entries",
    "cache.evictions",
    "cache.hits",
    "cache.journal_appends",
    "cache.journal_errors",
    "cache.misses",
    "cache.shared_hits",
    "coalesced",
    "connections",
    "executed",
    "in_flight",
    "lattice_prefix_hits",
    "panics",
    "prereduce_places_removed",
    "prereduce_transitions_removed",
    "request_timeouts",
    "requests",
    "role",
    "shard_id",
    "shed",
    "stages",
    "stages[].runs",
    "stages[].stage",
    "stages[].wall_ms",
    "synth_requests",
    "timeouts",
    "uptime_ms",
    "write_errors",
];

const BACKEND_METRICS: &[&str] = &[
    "reshuffle_bad_requests_total counter {}",
    "reshuffle_cache_entries gauge {}",
    "reshuffle_cache_evictions_total counter {}",
    "reshuffle_cache_hits_total counter {}",
    "reshuffle_cache_journal_appends_total counter {}",
    "reshuffle_cache_journal_errors_total counter {}",
    "reshuffle_cache_misses_total counter {}",
    "reshuffle_cache_shared_hits_total counter {}",
    "reshuffle_connections_total counter {}",
    "reshuffle_flight_wait_seconds histogram {}",
    "reshuffle_follower_timeouts_total counter {}",
    "reshuffle_in_flight gauge {}",
    "reshuffle_lattice_prefix_hits_total counter {}",
    "reshuffle_panics_total counter {}",
    "reshuffle_prereduce_places_removed_total counter {}",
    "reshuffle_prereduce_transitions_removed_total counter {}",
    "reshuffle_queue_wait_seconds histogram {}",
    "reshuffle_request_duration_seconds histogram {}",
    "reshuffle_request_timeouts_total counter {}",
    "reshuffle_requests_total counter {}",
    "reshuffle_shard_id gauge {}",
    "reshuffle_shed_total counter {}",
    "reshuffle_stage_duration_seconds histogram {stage=cache_hit} {stage=expand} {stage=parse} \
     {stage=reduce} {stage=resolve} {stage=synthesize}",
    "reshuffle_synth_coalesced_total counter {}",
    "reshuffle_synth_executed_total counter {}",
    "reshuffle_synth_requests_total counter {}",
    "reshuffle_uptime_seconds gauge {}",
    "reshuffle_write_errors_total counter {}",
];

/// The router's own `/stats` paths.
const ROUTER_STATS: &[&str] = &[
    "backends",
    "backends_configured",
    "bad_requests",
    "connections",
    "panics",
    "request_timeouts",
    "requests",
    "retries",
    "role",
    "routed",
    "routed[].addr",
    "routed[].backend",
    "routed[].errors",
    "routed[].routed",
    "routed[].up",
    "shed",
    "synth_requests",
    "totals",
    "uptime_ms",
    "write_errors",
];

/// The router's own `/metrics` families.
const ROUTER_METRICS: &[&str] = &[
    "reshuffle_backend_errors_total counter {backend=#0} {backend=#1}",
    "reshuffle_backend_up gauge {backend=#0} {backend=#1}",
    "reshuffle_routed_total counter {backend=#0} {backend=#1}",
    "reshuffle_router_bad_requests_total counter {}",
    "reshuffle_router_connections_total counter {}",
    "reshuffle_router_panics_total counter {}",
    "reshuffle_router_queue_wait_seconds histogram {}",
    "reshuffle_router_request_duration_seconds histogram {}",
    "reshuffle_router_request_timeouts_total counter {}",
    "reshuffle_router_requests_total counter {}",
    "reshuffle_router_retries_total counter {}",
    "reshuffle_router_shed_total counter {}",
    "reshuffle_router_synth_requests_total counter {}",
    "reshuffle_router_uptime_seconds gauge {}",
    "reshuffle_router_write_errors_total counter {}",
];

#[test]
fn backend_ops_surface_is_pinned() {
    let server = Server::start(ServerConfig::new().with_shard_id(0)).unwrap();
    let addr = server.addr().to_string();
    let steps = ["200 - -", "200 - -", "404 - -", "405 - -", "200 - -"];
    assert_eq!(run_script(&addr), steps);
    assert_eq!(stats_paths(&addr), BACKEND_STATS);
    assert_eq!(metric_families(&addr, &[]), BACKEND_METRICS);
    server.stop().unwrap();
}

#[test]
fn router_ops_surface_is_pinned() {
    let backends: Vec<Server> = (0..2)
        .map(|i| Server::start(ServerConfig::new().with_shard_id(i)).unwrap())
        .collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let router = Server::start(ServerConfig::new().with_route(addrs.clone())).unwrap();
    let addr = router.addr().to_string();
    let steps = [
        "200 - #",
        "200 - #",
        "404 router -",
        "405 router -",
        "200 router -",
    ];
    assert_eq!(run_script(&addr), steps);
    // The router embeds every backend document, sums their numeric
    // members, and merges every backend family but the per-process ones.
    let embedded = BACKEND_STATS.iter().map(|p| format!("backends[].{p}"));
    let numeric = BACKEND_STATS
        .iter()
        .filter(|p| !matches!(**p, "role" | "cache.capacity") && !p.starts_with("stages"));
    let summed = numeric.map(|p| format!("totals.{p}"));
    let stats = sorted(ROUTER_STATS, embedded.chain(summed));
    assert_eq!(stats_paths(&addr), stats);
    let per_process = ["reshuffle_uptime_seconds ", "reshuffle_shard_id "];
    let merged = BACKEND_METRICS
        .iter()
        .filter(|f| !per_process.iter().any(|p| f.starts_with(p)))
        .map(|f| f.to_string());
    let metrics = sorted(ROUTER_METRICS, merged);
    assert_eq!(metric_families(&addr, &addrs), metrics);
    router.stop().unwrap();
    for backend in backends {
        backend.stop().unwrap();
    }
}
