//! The `serve` workload: an in-process `reshuffle-server` driven over
//! two keep-alive connections by the benchmark's own `std::net` HTTP
//! client, which writes each request in one write.
//!
//! A priming server synthesizes the warm set and is aborted, leaving
//! its fsync'd journal behind. `setup_s` is `Server::start` on that
//! journal (recovery + bind). In the measured phase most requests repeat
//! the warm set (cache hits); one in eight is a fresh cheap
//! specification (a renamed `.model`, so a new fingerprint) that runs
//! the pipeline and appends to the journal, so reads and writes share
//! the cache.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use reshuffle::{
    simulate, DelayModel, ExpansionOptions, FileStore, Pipeline, PipelineOptions, ReduceOptions,
    SimOptions, SynthCache,
};
use reshuffle_server::{Server, ServerConfig};

use crate::gen::{self, Names, Rng};
use crate::layers::{self, Acc};
use crate::library::{pin, Pin};
use crate::measure::{self, ms, nearest_rank, Normalizer, Report};
use crate::trace::Tracer;

/// Server starts whose median is `setup_s`.
const STARTS: usize = 15;
/// Keep-alive connections (one per load thread; the host has 2 vCPUs).
const CONNECTIONS: usize = 2;
/// Every `FRESH_EVERY`-th request is a fresh specification.
const FRESH_EVERY: usize = 8;
/// The tail percentile, fixed so both commits compare the same one.
const TAIL_Q: f64 = 0.98;

/// One request the warm set repeats.
struct Warm {
    label: String,
    body: String,
    /// The `result` member every response must carry, byte for byte
    /// (taken from the priming response after checking its netlist
    /// against the library's).
    result: String,
}

/// The option modes of a request, as `(label, JSON, options)`.
fn mode(expand: bool, reduce: bool) -> (&'static str, &'static str, PipelineOptions) {
    let mut opts = PipelineOptions::new();
    if expand {
        opts = opts.with_expand(ExpansionOptions::default());
    }
    if reduce {
        opts = opts.with_reduce(ReduceOptions::default());
    }
    match (expand, reduce) {
        (false, false) => ("default", "{}", opts),
        (false, true) => ("reduce", "{\"reduce\":true}", opts),
        (true, false) => ("expand", "{\"expand\":true}", opts),
        (true, true) => ("expand+reduce", "{\"expand\":true,\"reduce\":true}", opts),
    }
}

/// The warm set: the complete corpus in all four option modes (`mfig1`
/// only with reduce: without it CSC resolution fails by design), checked
/// against the `BENCH_tables.json` rows, the
/// small partial specifications whose cached circuits survive a
/// restart, and the scaled controller at n = 2..8 — large entries that
/// make recovery and the cached state graphs visible.
///
/// Left out: at this version the cache store cannot round-trip most
/// circuits that handshake expansion produced. Their journal records
/// name a marked place (`<ack-,req+>`) that the written STG no longer
/// has, so `Server::start` fails to recover a journal holding one. This
/// hits `hslr` with expand alone, `pcreq`, `ring2`, `pulses-s2` in both
/// modes, and `twochan1`/`twochan2` with expand alone. Add them back
/// once the store round-trips them; the `partial` workload still runs
/// every one of them through the library.
fn warm_specs(names: &Names) -> Vec<WarmSpec> {
    let mut specs = Vec::new();
    for (label, g) in gen::CORPUS {
        for (expand, reduce) in [(false, false), (false, true), (true, false), (true, true)] {
            // Expansion leaves a complete specification as it is.
            if let Some(pin) = corpus_pin(label, reduce) {
                specs.push(WarmSpec::new(label, names.apply(g), expand, reduce, pin));
            }
        }
    }
    let partial = [
        ("hslr", gen::HSLR.to_string(), pin(2, 12.0, 0)),
        ("twochan1", gen::two_channel(1), pin(8, 16.0, 1)),
        ("twochan2", gen::two_channel(2), pin(14, 20.0, 2)),
    ];
    for (label, g, pin) in partial {
        specs.push(WarmSpec::new(label, names.apply(&g), true, true, pin));
    }
    for n in 2..=8 {
        let g = names.apply(&gen::scaled(n, false));
        let pin = pin(4 * n as u32, 12.0, 0);
        specs.push(WarmSpec::new(&format!("scaled{n}"), g, false, false, pin));
    }
    specs
}

/// One warm-set request and what its circuit must measure.
struct WarmSpec {
    label: String,
    g: String,
    expand: bool,
    reduce: bool,
    pin: Pin,
}

impl WarmSpec {
    fn new(label: &str, g: String, expand: bool, reduce: bool, pin: Pin) -> WarmSpec {
        WarmSpec {
            label: label.to_string(),
            g,
            expand,
            reduce,
            pin,
        }
    }
}

/// The `(lits, cycle, sig)` rows `BENCH_tables.json` pins for the
/// complete corpus, without and with reduce (`None`: that path fails
/// by design).
fn corpus_pin(label: &str, reduce: bool) -> Option<Pin> {
    let (default, reduced) = match label {
        "toggle" => (Some(pin(1, 6.0, 0)), pin(1, 6.0, 0)),
        "xyz" => (Some(pin(2, 8.0, 0)), pin(2, 8.0, 0)),
        "lr" => (Some(pin(2, 12.0, 0)), pin(2, 12.0, 0)),
        "mmu" => (Some(pin(4, 12.0, 0)), pin(4, 12.0, 0)),
        "par" => (Some(pin(8, 12.0, 0)), pin(3, 18.0, 0)),
        "mfig1" => (None, pin(1, 6.0, 0)),
        "creq" => (Some(pin(11, 8.0, 1)), pin(2, 8.0, 0)),
        _ => unreachable!("no pin for corpus entry {label}"),
    };
    if reduce {
        Some(reduced)
    } else {
        default
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn request_body(g: &str, options: &str) -> String {
    format!("{{\"g\":\"{}\",\"options\":{options}}}", json_escape(g))
}

/// Decodes the JSON string value of member `key` in `text`.
fn json_str(text: &str, key: &str) -> Option<String> {
    let start = text.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let mut out = String::new();
    let mut chars = text[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// The number value of member `key` in `text` (first occurrence).
fn json_num(text: &str, key: &str) -> f64 {
    text.find(&format!("\"{key}\":"))
        .map(|i| &text[i + key.len() + 3..])
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(f64::NAN)
}

/// The `result` member of a `/synthesize` response.
fn result_of(body: &str) -> Option<&str> {
    let i = body.find("\"result\":")?;
    body[i + 9..].strip_suffix('}')
}

/// A minimal HTTP/1.1 keep-alive client: one write per request,
/// reconnecting when the server closes the connection.
struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            connects: 0,
        }
    }

    /// Sends one request and reads the response: `(status, body)`.
    fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, String)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.conn = Some(BufReader::new(stream));
            self.connects += 1;
        }
        let result = Self::round_trip(self.conn.as_mut().expect("connected above"), request);
        match &result {
            Ok((_, _, keep)) if *keep => {}
            _ => self.conn = None,
        }
        result.map(|(status, body, _)| (status, body))
    }

    fn round_trip(
        conn: &mut BufReader<TcpStream>,
        request: &[u8],
    ) -> io::Result<(u16, String, bool)> {
        conn.get_mut().write_all(request)?;
        let mut status = 0u16;
        let mut length = 0usize;
        let mut keep = true;
        let mut line = String::new();
        loop {
            line.clear();
            if conn.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed",
                ));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if status == 0 {
                status = l
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
            } else if let Some((name, value)) = l.split_once(':') {
                let value = value.trim();
                match name.to_ascii_lowercase().as_str() {
                    "content-length" => length = value.parse().unwrap_or(0),
                    "connection" => keep = !value.eq_ignore_ascii_case("close"),
                    _ => {}
                }
            }
        }
        let mut body = vec![0u8; length];
        conn.read_exact(&mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned(), keep))
    }
}

fn post(body: &str) -> Vec<u8> {
    format!(
        "POST /synthesize HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

fn config(cache: &Path) -> ServerConfig {
    ServerConfig::new()
        .with_addr("127.0.0.1:0")
        .with_cache_path(cache)
        .with_trace_level(0)
}

/// What one load thread saw.
#[derive(Default)]
struct Load {
    latencies: Vec<(f64, bool)>,
    warm: u64,
    fresh: u64,
    failed: u64,
    connects: u64,
    spans: Option<Tracer>,
}

/// What every load thread shares.
struct Plan<'a> {
    addr: SocketAddr,
    seed: u64,
    warm: &'a [Warm],
    /// Fresh base specifications with their netlists.
    fresh: &'a [(String, String)],
    /// Time origin of the run's spans.
    epoch: Instant,
    deadline: Instant,
    trace: bool,
}

/// What a response must carry.
enum Expect<'a> {
    /// A cache hit with exactly this `result`.
    Hit(&'a str),
    /// An executed run with this netlist.
    Fresh(&'a str),
}

/// Closed-loop load over one keep-alive connection until the deadline:
/// the warm set in seeded orders, every [`FRESH_EVERY`]-th request a
/// fresh renamed specification. A traced run traces every other
/// request.
fn load(plan: &Plan<'_>, thread: usize) -> Load {
    let mut rng = Rng::new(plan.seed ^ (thread as u64 + 1).wrapping_mul(0x9e37_79b9));
    let mut client = Client::new(plan.addr);
    let mut out = Load::default();
    let mut tracer = plan.trace.then(|| Tracer::with_epoch(plan.epoch));
    let mut order: Vec<usize> = Vec::new();
    let mut sent = 0usize;
    while Instant::now() < plan.deadline {
        let is_fresh = sent % FRESH_EVERY == FRESH_EVERY - 1;
        let (label, request, expect) = if is_fresh {
            let (g, netlist) = &plan.fresh[rng.below(plan.fresh.len())];
            let g = gen::rename_model(g, &format!("x{thread}n{sent}"));
            (
                "fresh",
                post(&request_body(&g, "{}")),
                Expect::Fresh(netlist),
            )
        } else {
            if order.is_empty() {
                order = (0..plan.warm.len()).collect();
                rng.shuffle(&mut order);
            }
            let w = &plan.warm[order.pop().expect("refilled above")];
            (w.label.as_str(), post(&w.body), Expect::Hit(&w.result))
        };
        let traced = tracer.is_some() && sent % 2 == 1;
        let op = ((thread as u64) << 32) + sent as u64;
        let t = Instant::now();
        let response = match (&mut tracer, traced) {
            (Some(tr), true) => tr.span(op, None, "http.exchange", || client.exchange(&request)),
            _ => client.exchange(&request),
        };
        let latency = ms(t.elapsed());
        sent += 1;
        let ok = match (&response, expect) {
            // A repeat that arrives while the other connection's
            // identical request is in flight is coalesced onto it.
            (Ok((200, body)), Expect::Hit(result)) => {
                (body.starts_with("{\"cache_hit\":true")
                    || body.starts_with("{\"cache_hit\":false,\"coalesced\":true"))
                    && result_of(body) == Some(result)
            }
            (Ok((200, body)), Expect::Fresh(netlist)) => {
                body.starts_with("{\"cache_hit\":false")
                    && json_str(body, "netlist").as_deref() == Some(netlist)
            }
            _ => false,
        };
        if !ok {
            out.failed += 1;
            eprintln!("request {op:#x} ({label}) failed: {response:?}");
        }
        if is_fresh {
            out.fresh += 1;
        } else {
            out.warm += 1;
        }
        out.latencies.push((latency, traced));
    }
    out.connects = client.connects;
    out.spans = tracer;
    out
}

/// One line's value from a Prometheus text document.
fn prom(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series).and_then(|v| v.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Mean of a Prometheus histogram in milliseconds (0 when empty).
fn prom_mean_ms(text: &str, family: &str, labels: &str) -> f64 {
    let count = prom(text, &format!("{family}_count{labels}"));
    if count > 0.0 {
        prom(text, &format!("{family}_sum{labels}")) / count * 1e3
    } else {
        0.0
    }
}

struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> i32 {
    match run_inner(seed, seconds, trace) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("serve: {e}");
            1
        }
    }
}

fn run_inner(seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
    let names = Names::from_seed(seed);
    let dir = WorkDir(PathBuf::from(format!(
        "perfbench/out/serve-{}",
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).map_err(|e| e.to_string())?;
    let cache_path = dir.0.join("cache.snap");

    // Library references for every warm request, outside timed regions.
    let mut lits = 0u64;
    let mut cycle = 0.0f64;
    let mut signals = 0u64;
    let mut refs = Vec::new();
    let mut failed = 0u64;
    for spec in warm_specs(&names) {
        let (mode_label, options, opts) = mode(spec.expand, spec.reduce);
        let label = format!("{}/{mode_label}", spec.label);
        let done = Pipeline::from_g(&spec.g)
            .and_then(|p| p.run(&opts))
            .map_err(|e| format!("{label}: reference run failed: {e}"))?;
        let s = done.synthesis();
        let run = simulate(
            &s.stg,
            &DelayModel::uniform(&s.stg, 2.0, 1.0),
            &SimOptions::default(),
        )
        .map_err(|e| e.to_string())?;
        let measured = pin(
            reshuffle::synth::literal_estimate(&s.sg),
            run.period,
            s.inserted.len(),
        );
        if measured != spec.pin {
            eprintln!("{label}: measured {measured:?}, reference {:?}", spec.pin);
            failed += 1;
        }
        lits += u64::from(measured.lits);
        cycle += measured.cycle;
        signals +=
            s.sg.signals()
                .iter()
                .filter(|sig| sig.kind.is_noninput())
                .count() as u64;
        refs.push((label, request_body(&spec.g, options), s.netlist.describe()));
    }
    // Fresh requests rename the cheap default-mode corpus entries.
    let fresh: Vec<(String, String)> = gen::CORPUS
        .iter()
        .filter(|(label, _)| ["toggle", "xyz", "lr", "mmu", "par"].contains(label))
        .map(|(_, g)| {
            let g = names.apply(g);
            let netlist = Pipeline::from_g(&g)
                .and_then(|p| p.run(&PipelineOptions::new()))
                .map(|d| d.netlist().describe());
            netlist.map(|n| (g, n)).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;

    // Priming: synthesize the warm set, check it, abort the server.
    let mut warm = Vec::new();
    {
        let server = Server::start(config(&cache_path)).map_err(|e| e.to_string())?;
        let mut client = Client::new(server.addr());
        for (label, body, netlist) in refs {
            let response = client.exchange(&post(&body));
            let result = match &response {
                Ok((200, text)) if text.starts_with("{\"cache_hit\":false") => {
                    result_of(text).filter(|r| json_str(r, "netlist").as_deref() == Some(&netlist))
                }
                _ => None,
            };
            match result {
                Some(result) => warm.push(Warm {
                    label,
                    body,
                    result: result.to_string(),
                }),
                None => {
                    eprintln!("priming {label}: unexpected response {response:?}");
                    failed += 1;
                }
            }
        }
        drop(client);
        server.abort();
    }
    if warm.is_empty() {
        return Err("priming produced no warm entries".into());
    }
    let journal = FileStore::new(&cache_path).journal_path();
    let journal_bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);

    // Set-up: server start on the primed journal, normalized, median.
    let mut norm = Normalizer::new();
    let mut starts_raw = Vec::new();
    for _ in 0..STARTS {
        let (server, raw) = norm.time(|| Server::start(config(&cache_path)));
        server.map_err(|e| e.to_string())?.abort();
        starts_raw.push(raw / 1e3);
    }
    let mut starts: Vec<f64> = norm.normalized().iter().map(|v| v / 1e3).collect();
    let mut recovery = Vec::new();
    if trace {
        for _ in 0..STARTS {
            let t = Instant::now();
            let r = SynthCache::recover(&FileStore::new(&cache_path)).map_err(|e| e.to_string())?;
            recovery.push(ms(t.elapsed()));
            drop(r);
        }
    }

    // Measured phase.
    let server = Server::start(config(&cache_path)).map_err(|e| e.to_string())?;
    let addr = server.addr();
    let t0 = Instant::now();
    let plan = Plan {
        addr,
        seed,
        warm: &warm,
        fresh: &fresh,
        epoch: t0,
        deadline: t0 + Duration::from_secs(seconds),
        trace,
    };
    let loads: Vec<Load> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|t| {
                let plan = &plan;
                scope.spawn(move || load(plan, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    // Cross-checks against the server's own counters.
    let mut client = Client::new(addr);
    let stats = client
        .exchange(&get("/stats"))
        .map_err(|e| e.to_string())?
        .1;
    let metrics = client
        .exchange(&get("/metrics"))
        .map_err(|e| e.to_string())?
        .1;
    drop(client);
    server.abort();
    let warm_sent: u64 = loads.iter().map(|l| l.warm).sum();
    let fresh_sent: u64 = loads.iter().map(|l| l.fresh).sum();
    failed += loads.iter().map(|l| l.failed).sum::<u64>();
    let executed = json_num(&stats, "executed");
    let served = json_num(&stats, "hits") + json_num(&stats, "coalesced");
    if executed != fresh_sent as f64 || served != warm_sent as f64 {
        eprintln!(
            "/stats: executed {executed} (fresh sent {fresh_sent}), hits + coalesced {served} \
             (repeats sent {warm_sent})"
        );
        failed += 1;
    }
    if let Err(e) = reshuffle_obs::validate(&metrics) {
        eprintln!("/metrics does not validate: {e}");
        failed += 1;
    }

    let all: Vec<(f64, bool)> = loads.iter().flat_map(|l| l.latencies.clone()).collect();
    let attempted = all.len() as u64 + warm.len() as u64;
    let mut untraced: Vec<f64> = all.iter().filter(|l| !l.1).map(|l| l.0).collect();
    let n = untraced.len();
    let p50 = nearest_rank(&mut untraced, 0.5);
    let tail = nearest_rank(&mut untraced, TAIL_Q);
    let beyond = untraced.iter().filter(|v| **v > tail).count();
    let (setup_s, setup_raw) = (
        nearest_rank(&mut starts, 0.5),
        nearest_rank(&mut starts_raw, 0.5),
    );
    let ref_ms = norm.ref_median_ms();
    println!(
        "workload serve seed {seed}: {} requests ({warm_sent} repeats, {fresh_sent} fresh) \
         over {wall_s:.1} s on {CONNECTIONS} connections, {failed} failed; {} warm entries",
        all.len(),
        warm.len()
    );
    println!(
        "tail percentile p{} over {n} samples, {beyond} beyond it",
        (TAIL_Q * 100.0).round()
    );
    println!("raw ref_kernel_ms {ref_ms}");
    println!("raw setup_s {setup_raw}");

    let mut report = Report::default();
    if !trace {
        report.add("setup_s", setup_s, "s");
        report.add("throughput_per_s", all.len() as f64 / wall_s, "1/s");
        report.add("p50_ms", p50, "ms");
        report.add("tail_ms", tail, "ms");
        report.add("peak_rss_mb", measure::peak_rss_mb(), "MB");
        report.add(
            "ok_frac",
            (attempted - failed.min(attempted)) as f64 / attempted as f64,
            "ratio",
        );
        report.add("literals", lits as f64, "count");
        report.add("cycle", cycle, "delay");
        report.add("circuit_signals", signals as f64, "count");
    } else {
        let mut acc = Acc::default();
        let lookups = json_num(&stats, "hits") + json_num(&stats, "misses");
        acc.add("cache.lookups", lookups);
        acc.add("cache.hits", json_num(&stats, "hits"));
        acc.add("cache.misses", json_num(&stats, "misses"));
        acc.add("cache.shared_hits", json_num(&stats, "shared_hits"));
        acc.add(
            "cache.hit_ratio",
            json_num(&stats, "hits") / lookups.max(1.0),
        );
        let stage = "{stage=\"cache_hit\"}";
        acc.add(
            "cache.hit_stage_us",
            prom_mean_ms(&metrics, "reshuffle_stage_duration_seconds", stage) * 1e3,
        );
        acc.add("store.recovery_ms", nearest_rank(&mut recovery, 0.5));
        acc.add("store.journal_bytes", journal_bytes as f64);
        acc.add(
            "store.bytes_per_entry",
            journal_bytes as f64 / warm.len() as f64,
        );
        acc.add("store.appends", json_num(&stats, "journal_appends"));
        let client_ms = all.iter().map(|l| l.0).sum::<f64>() / all.len().max(1) as f64;
        let server_ms = prom_mean_ms(&metrics, "reshuffle_request_duration_seconds", "");
        acc.add("server.client_ms", client_ms);
        acc.add("server.request_ms", server_ms);
        acc.add("server.transport_ms", client_ms - server_ms);
        acc.add(
            "server.queue_wait_ms",
            prom_mean_ms(&metrics, "reshuffle_queue_wait_seconds", ""),
        );
        acc.add(
            "server.flight_wait_ms",
            prom_mean_ms(&metrics, "reshuffle_flight_wait_seconds", ""),
        );
        acc.add("server.connections", json_num(&stats, "connections"));
        let connects: u64 = loads.iter().map(|l| l.connects).sum();
        acc.add(
            "server.reconnects",
            connects.saturating_sub(CONNECTIONS as u64) as f64,
        );
        acc.add("server.shed", json_num(&stats, "shed"));
        let errors = [
            "bad_requests",
            "write_errors",
            "timeouts",
            "request_timeouts",
        ]
        .iter()
        .map(|k| json_num(&stats, k))
        .sum::<f64>();
        acc.add("server.errors", errors + failed as f64);
        let mean = |traced: bool| {
            let v: Vec<f64> = all.iter().filter(|l| l.1 == traced).map(|l| l.0).collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        acc.add("obs.overhead_pct", (mean(true) / mean(false) - 1.0) * 100.0);
        acc.add("bench.ref_kernel_ms", ref_ms);
        println!(
            "client {client_ms:.3} ms per request = server-side {server_ms:.3} ms + transport \
             {:.3} ms; the cache_hit stage is {:.1} us of it",
            client_ms - server_ms,
            acc.get("cache.hit_stage_us")
        );
        let mut tracer = Tracer::with_epoch(t0);
        for l in loads {
            if let Some(t) = l.spans {
                let base = tracer.spans.len();
                tracer.spans.extend(t.spans.into_iter().map(|mut s| {
                    s.id += base;
                    s.parent = s.parent.map(|p| p + base);
                    s
                }));
            }
        }
        tracer.write("serve", seed);
        report.metrics = layers::report(&acc);
    }
    report.print(failed == 0, attempted, failed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_warm_set() {
        let bodies = |seed| -> Vec<String> {
            warm_specs(&Names::from_seed(seed))
                .into_iter()
                .map(|w| request_body(&w.g, mode(w.expand, w.reduce).1))
                .collect()
        };
        assert_eq!(bodies(7), bodies(7));
        assert_ne!(bodies(7), bodies(8));
    }

    #[test]
    fn json_helpers_read_what_the_server_writes() {
        let body =
            "{\"cache_hit\":true,\"coalesced\":false,\"result\":{\"netlist\":\"a = b\\nc\"}}";
        assert_eq!(result_of(body), Some("{\"netlist\":\"a = b\\nc\"}"));
        assert_eq!(json_str(body, "netlist").as_deref(), Some("a = b\nc"));
        assert_eq!(json_num("{\"executed\":12,\"hits\":3}", "hits"), 3.0);
    }
}
