//! The per-layer metric catalogue: every metric of the traced run,
//! with the end-to-end metric it should move and the workload it should
//! move on (it stays near 0 elsewhere). Written down before measuring.

/// `(name, unit, should move, on workload)`.
pub const LAYERS: &[(&str, &str, &str, &str)] = &[
    // petri: parse and structural pre-reduction.
    (
        "petri.parse_ms",
        "ms",
        "p50_ms throughput_per_s",
        "complete",
    ),
    (
        "petri.prereduce_ms",
        "ms",
        "p50_ms throughput_per_s",
        "complete",
    ),
    (
        "petri.prereduce_places",
        "count",
        "p50_ms throughput_per_s",
        "complete",
    ),
    (
        "petri.prereduce_transitions",
        "count",
        "p50_ms throughput_per_s",
        "complete",
    ),
    // sg build: marking BFS vs encoding product.
    (
        "sg.build_ms",
        "ms",
        "p50_ms throughput_per_s peak_rss_mb",
        "complete",
    ),
    (
        "sg.markings_ms",
        "ms",
        "p50_ms throughput_per_s peak_rss_mb",
        "complete",
    ),
    (
        "sg.encode_ms",
        "ms",
        "p50_ms throughput_per_s peak_rss_mb",
        "complete",
    ),
    (
        "sg.states",
        "count",
        "p50_ms throughput_per_s peak_rss_mb",
        "complete",
    ),
    (
        "sg.arcs",
        "count",
        "p50_ms throughput_per_s peak_rss_mb",
        "complete",
    ),
    (
        "sg.peak_frontier",
        "count",
        "p50_ms throughput_per_s peak_rss_mb",
        "complete",
    ),
    (
        "sg.ns_per_state",
        "ns",
        "p50_ms throughput_per_s peak_rss_mb",
        "complete",
    ),
    // sg props / csc.
    ("sg.si_gate_ms", "ms", "p50_ms", "complete"),
    ("sg.csc_ms", "ms", "p50_ms", "complete"),
    ("sg.csc_conflicts", "count", "p50_ms", "complete"),
    // handshake expansion (Section 3).
    ("handshake.expand_ms", "ms", "p50_ms tail_ms", "partial"),
    ("handshake.points", "count", "p50_ms tail_ms", "partial"),
    ("handshake.infeasible", "count", "p50_ms tail_ms", "partial"),
    ("handshake.duplicates", "count", "p50_ms tail_ms", "partial"),
    (
        "handshake.prefix_hits",
        "count",
        "p50_ms tail_ms",
        "partial",
    ),
    ("handshake.products", "count", "p50_ms tail_ms", "partial"),
    (
        "handshake.candidates_per_point",
        "ratio",
        "p50_ms tail_ms",
        "partial",
    ),
    // reduce (Section 4).
    (
        "reduce.search_ms",
        "ms",
        "p50_ms tail_ms literals cycle",
        "partial",
    ),
    (
        "reduce.scored",
        "count",
        "p50_ms tail_ms literals cycle",
        "partial",
    ),
    (
        "reduce.pruned",
        "count",
        "p50_ms tail_ms literals cycle",
        "partial",
    ),
    (
        "reduce.moves",
        "count",
        "p50_ms tail_ms literals cycle",
        "partial",
    ),
    (
        "reduce.moves_per_scored",
        "ratio",
        "p50_ms tail_ms literals cycle",
        "partial",
    ),
    // synth resolve: CSC insertion.
    (
        "resolve.ms",
        "ms",
        "p50_ms tail_ms throughput_per_s",
        "partial",
    ),
    (
        "resolve.tried",
        "count",
        "p50_ms tail_ms throughput_per_s",
        "partial",
    ),
    (
        "resolve.inserted",
        "count",
        "p50_ms tail_ms throughput_per_s",
        "partial",
    ),
    (
        "resolve.inserted_per_tried",
        "ratio",
        "p50_ms tail_ms throughput_per_s",
        "partial",
    ),
    // synth derive (+ logic minimizer, netlist) / verify.
    ("synth.derive_ms", "ms", "p50_ms", "complete"),
    ("synth.reachable_codes", "count", "p50_ms", "complete"),
    ("synth.verify_ms", "ms", "p50_ms", "complete"),
    // synth score (+ timing).
    (
        "score.literal_estimate_ms",
        "ms",
        "p50_ms",
        "complete partial",
    ),
    ("score.simulate_ms", "ms", "p50_ms", "complete partial"),
    (
        "score.candidates_ranked",
        "count",
        "p50_ms",
        "complete partial",
    ),
    // core: the public stage calls, timed around each call.
    ("core.op_ms", "ms", "all timings", "complete partial"),
    ("core.from_g_ms", "ms", "all timings", "complete partial"),
    ("core.expand_ms", "ms", "all timings", "complete partial"),
    ("core.reduce_ms", "ms", "all timings", "complete partial"),
    ("core.resolve_ms", "ms", "all timings", "complete partial"),
    (
        "core.synthesize_ms",
        "ms",
        "all timings",
        "complete partial",
    ),
    (
        "core.unattributed_ms",
        "ms",
        "all timings",
        "complete partial",
    ),
    // core cache.
    ("cache.lookups", "count", "p50_ms throughput_per_s", "serve"),
    ("cache.hits", "count", "p50_ms throughput_per_s", "serve"),
    ("cache.misses", "count", "p50_ms throughput_per_s", "serve"),
    (
        "cache.shared_hits",
        "count",
        "p50_ms throughput_per_s",
        "serve",
    ),
    (
        "cache.hit_ratio",
        "ratio",
        "p50_ms throughput_per_s",
        "serve",
    ),
    (
        "cache.hit_stage_us",
        "us",
        "p50_ms throughput_per_s",
        "serve",
    ),
    // core store.
    ("store.recovery_ms", "ms", "setup_s peak_rss_mb", "serve"),
    (
        "store.journal_bytes",
        "bytes",
        "setup_s peak_rss_mb",
        "serve",
    ),
    (
        "store.bytes_per_entry",
        "bytes",
        "setup_s peak_rss_mb",
        "serve",
    ),
    ("store.appends", "count", "setup_s peak_rss_mb", "serve"),
    // server.
    (
        "server.client_ms",
        "ms",
        "p50_ms tail_ms throughput_per_s",
        "serve",
    ),
    (
        "server.request_ms",
        "ms",
        "p50_ms tail_ms throughput_per_s",
        "serve",
    ),
    (
        "server.transport_ms",
        "ms",
        "p50_ms tail_ms throughput_per_s",
        "serve",
    ),
    (
        "server.queue_wait_ms",
        "ms",
        "p50_ms tail_ms throughput_per_s",
        "serve",
    ),
    (
        "server.flight_wait_ms",
        "ms",
        "p50_ms tail_ms throughput_per_s",
        "serve",
    ),
    (
        "server.connections",
        "count",
        "p50_ms tail_ms throughput_per_s",
        "serve",
    ),
    (
        "server.reconnects",
        "count",
        "p50_ms tail_ms throughput_per_s",
        "serve",
    ),
    (
        "server.shed",
        "count",
        "p50_ms tail_ms throughput_per_s",
        "serve",
    ),
    (
        "server.errors",
        "count",
        "p50_ms tail_ms throughput_per_s",
        "serve",
    ),
    // obs: what the benchmark's own tracing costs.
    ("obs.overhead_pct", "%", "none (about 0)", "all"),
    // The host: the reference kernel's raw time.
    ("bench.ref_kernel_ms", "ms", "none (shows host load)", "all"),
];

/// Accumulates per-layer values by name.
#[derive(Default)]
pub struct Acc {
    values: Vec<(&'static str, f64)>,
    /// Numerators and denominators of ratio metrics.
    bases: Vec<(&'static str, f64)>,
}

impl Acc {
    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            LAYERS.iter().any(|l| l.0 == name),
            "unknown layer metric {name}"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some((_, s)) => *s += v,
            None => self.values.push((name, v)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.add(name, v);
    }

    pub fn add_base(&mut self, name: &'static str, v: f64) {
        match self.bases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, s)) => *s += v,
            None => self.bases.push((name, v)),
        }
    }

    pub fn base(&self, name: &str) -> f64 {
        self.bases
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Prints the per-layer report (every catalogue entry with its target)
/// and returns the metrics in catalogue order; a layer the workload
/// does not exercise reads 0.
pub fn report(acc: &Acc) -> Vec<(String, f64, &'static str)> {
    println!("per-layer metrics (per operation unless a count of the run):");
    println!(
        "  {:<32} {:>14} {:<6} {:<38} workload",
        "metric", "value", "unit", "should move"
    );
    LAYERS
        .iter()
        .map(|(name, unit, moves, workload)| {
            let v = acc.get(name);
            println!("  {name:<32} {v:>14.4} {unit:<6} {moves:<38} {workload}");
            (name.to_string(), v, *unit)
        })
        .collect()
}
