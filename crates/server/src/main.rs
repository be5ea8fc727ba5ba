//! The `reshuffle-server` binary: parse flags, start the service, and
//! run until a client posts `/shutdown` (or the process is killed).
//!
//! Two modes share one binary and one transport flag set:
//!
//! ```sh
//! # A backend shard: synthesis, cache, journal.
//! reshuffle-server --addr 127.0.0.1:7890 --shard-id 0 \
//!     --cache /tmp/shard0.cache --cache-capacity 1024 --threads 4
//!
//! # The router tier in front of a fleet: same POST /synthesize
//! # surface, forwards key % N to the listed backends in order.
//! reshuffle-server --addr 127.0.0.1:7878 \
//!     --route 127.0.0.1:7890,127.0.0.1:7891
//! ```

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use reshuffle_server::{Server, ServerConfig, SinkHandle};

fn usage() -> &'static str {
    "usage: reshuffle-server [--addr HOST:PORT] [--threads N] [--queue-depth N]\n\
     \x20                       [--timeout-secs N] [--idle-timeout-secs N]\n\
     \x20                       [--max-requests-per-conn N] [--max-body-bytes N]\n\
     \x20                       [--trace-level N] [--trace-file PATH]\n\
     \x20  serve mode:          [--cache PATH] [--cache-capacity N] [--shard-id N]\n\
     \x20  router mode:         --route BACKEND1,BACKEND2,...\n\
     \x20                       [--backend-retries N] [--connect-timeout-ms N]\n\
     \x20                       [--health-interval-ms N]"
}

fn num<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Every flag takes exactly one value. Serve-only flags in route mode
/// are rejected by [`Server::start`]; router-only flags without
/// `--route` are rejected here.
fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::new();
    let mut router_only = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let flag = flag.as_str();
        match flag {
            "--addr" => cfg = cfg.with_addr(v),
            "--threads" => cfg = cfg.with_threads(num(flag, v)?),
            "--queue-depth" => cfg = cfg.with_queue_depth(num(flag, v)?),
            "--timeout-secs" => {
                cfg = cfg.with_request_timeout(Duration::from_secs(num(flag, v)?));
            }
            "--idle-timeout-secs" => {
                cfg = cfg.with_idle_timeout(Duration::from_secs(num(flag, v)?));
            }
            "--max-requests-per-conn" => cfg = cfg.with_max_requests_per_conn(num(flag, v)?),
            "--max-body-bytes" => cfg = cfg.with_max_body_bytes(num(flag, v)?),
            "--trace-level" => cfg = cfg.with_trace_level(num(flag, v)?),
            "--trace-file" => {
                let sink = SinkHandle::file(std::path::Path::new(v))
                    .map_err(|e| format!("--trace-file {v}: {e}"))?;
                cfg = cfg.with_trace_sink(sink);
            }
            "--cache" => cfg = cfg.with_cache_path(v),
            "--cache-capacity" => cfg = cfg.with_cache_capacity(Some(num(flag, v)?)),
            "--shard-id" => cfg = cfg.with_shard_id(num(flag, v)?),
            "--route" => {
                let backends: Vec<String> = v
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if backends.is_empty() {
                    return Err("--route needs a comma-separated backend list".to_string());
                }
                cfg = cfg.with_route(backends);
            }
            "--backend-retries" => {
                cfg = cfg.with_retries(num(flag, v)?);
                router_only = Some(flag);
            }
            "--connect-timeout-ms" => {
                cfg = cfg.with_connect_timeout(Duration::from_millis(num(flag, v)?));
                router_only = Some(flag);
            }
            "--health-interval-ms" => {
                cfg = cfg.with_health_interval(Duration::from_millis(num(flag, v)?));
                router_only = Some(flag);
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    match router_only {
        Some(flag) if cfg.route.is_none() => Err(format!(
            "`{flag}` applies to router mode (--route)\n{}",
            usage()
        )),
        _ => Ok(cfg),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mode = match &cfg.route {
        Some(backends) => format!(" (router, {} backends)", backends.len()),
        None => String::new(),
    };
    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("reshuffle-server listening on {}{mode}", server.addr());
    server.wait_for_shutdown();
    match server.stop() {
        Ok(()) => {
            println!("reshuffle-server: clean shutdown");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error during shutdown: {e}");
            ExitCode::FAILURE
        }
    }
}
