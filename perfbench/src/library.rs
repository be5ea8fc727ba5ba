//! The `complete` and `partial` workloads: one closed-loop caller
//! driving the staged `Pipeline` chain in-process, no cache.

use std::process::Command;
use std::time::Instant;

use reshuffle::handshake::expand_handshakes_stats;
use reshuffle::petri::{prereduce, ReachabilityGraph, DEFAULT_STATE_BUDGET};
use reshuffle::reduce::reduce_concurrency_from;
use reshuffle::sg::csc::analyze_csc;
use reshuffle::sg::props::speed_independence;
use reshuffle::sg::{build_state_graph_stats, BuildOptions};
use reshuffle::synth::{
    literal_estimate, resolve_csc_analyzed, synthesize_complex_gates, verify_against_sg,
};
use reshuffle::{
    parse_g, simulate, CscOptions, DelayModel, ExpansionOptions, ImplStyle, Pipeline,
    ReduceOptions, SimOptions, StateGraph, Stg, Synthesized,
};

use crate::gen::{self, Names, Rng};
use crate::layers::{self, Acc};
use crate::measure::{self, ms, nearest_rank, Normalizer, Report, REF_NOMINAL_MS};
use crate::trace::Tracer;

/// Fresh processes whose cold pass `setup_s` is the median of.
const COLD_RUNS: usize = 5;

/// What a synthesized input must measure, as the `tables` report
/// measures it: literal estimate of the final state graph, simulated
/// period at input/gate delays 2/1, and inserted state signals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pin {
    pub lits: u32,
    pub cycle: f64,
    pub sig: usize,
}

pub const fn pin(lits: u32, cycle: f64, sig: usize) -> Pin {
    Pin { lits, cycle, sig }
}

/// One distinct input of a workload: a generated source and the
/// pipeline stages it runs through.
#[derive(Debug, Clone)]
pub struct Input {
    pub label: String,
    pub g: String,
    pub expand: bool,
    pub reduce: bool,
    pub pin: Pin,
    /// Closed-form state count of the final graph, where one exists.
    pub states: Option<usize>,
}

pub struct Workload {
    pub inputs: Vec<Input>,
    /// One cycle of operations (indices into `inputs`). The measured
    /// phase runs whole cycles, each in a seeded order, so every seed
    /// measures the same multiset of inputs.
    pub cycle: Vec<usize>,
    /// Inputs of the cold pass behind `setup_s`.
    pub cold: Vec<usize>,
    /// The tail percentile, fixed so both commits compare the same one.
    pub tail_q: f64,
}

/// `complete`: the scaled fork/join controller at n = 7, 8, 9, plain
/// and dummy-padded, default options. Per cycle of 12 operations: four
/// at n = 7, six at n = 8, two at n = 9, so the median and the p75 tail
/// both fall inside the n = 8 class. The references are closed forms:
/// `2·3^n + 2` states, `4n` literals and a period of 12, which hold for
/// n = 2..9 (padded inputs pre-reduce to the plain net).
pub fn complete(names: &Names) -> Workload {
    let mut inputs = Vec::new();
    for n in [7, 8, 9] {
        for padded in [false, true] {
            inputs.push(Input {
                label: format!("scaled{n}{}", if padded { "p" } else { "" }),
                g: names.apply(&gen::scaled(n, padded)),
                expand: false,
                reduce: false,
                pin: pin(4 * n as u32, 12.0, 0),
                states: Some(gen::scaled_states(n)),
            });
        }
    }
    Workload {
        inputs,
        cycle: vec![0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 4, 5],
        cold: vec![0, 1],
        tail_q: 0.75,
    }
}

/// `partial`: the corpus's two partial specifications and four
/// generated families (`ring2` is the largest ring that costs under a
/// second: `ring3` takes 2.5-7.6 s), each with `expand` and with
/// `expand` + `reduce`, so about half the operations run the reduce
/// stage. Operations cost about 3 ms to 1.1 s. The pins are regression
/// pins recorded from this program (`hslr`/`pcreq` agree with the
/// committed `BENCH_tables.json` rows), not independent references.
pub fn partial(names: &Names) -> Workload {
    let specs: [(&str, String, Pin, Pin); 8] = [
        (
            "hslr",
            gen::HSLR.to_string(),
            pin(18, 12.0, 2),
            pin(2, 12.0, 0),
        ),
        (
            "pcreq",
            gen::PCREQ.to_string(),
            pin(6, 9.0, 1),
            pin(2, 8.0, 0),
        ),
        (
            "pulses-s2",
            gen::pulses(2, false),
            pin(12, 11.0, 2),
            pin(9, 10.0, 0),
        ),
        (
            "pulses-s3",
            gen::pulses(3, false),
            pin(16, 15.0, 2),
            pin(13, 14.0, 1),
        ),
        (
            "pulses-c2",
            gen::pulses(2, true),
            pin(12, 10.0, 2),
            pin(3, 10.0, 0),
        ),
        (
            "twochan2",
            gen::two_channel(2),
            pin(31, 18.0, 3),
            pin(14, 20.0, 2),
        ),
        (
            "twochan3",
            gen::two_channel(3),
            pin(37, 22.0, 4),
            pin(22, 19.0, 2),
        ),
        ("ring2", gen::ring(2), pin(17, 12.0, 2), pin(9, 14.0, 1)),
    ];
    let mut inputs = Vec::new();
    for (label, g, expand_pin, reduce_pin) in specs {
        for (reduce, pin) in [(false, expand_pin), (true, reduce_pin)] {
            inputs.push(Input {
                label: format!(
                    "{label}/{}",
                    if reduce { "expand+reduce" } else { "expand" }
                ),
                g: names.apply(&g),
                expand: true,
                reduce,
                pin,
                states: None,
            });
        }
    }
    // Extra copies balance the cycle of 22 so that both percentiles sit
    // inside a cluster of inputs of similar cost, not on the edge
    // between two: eight operations cost under 0.15 s; the median falls
    // in the middle of six at about 0.2 s (`pulses-c2` and `twochan3`
    // with reduce, three times each); four at about 0.26 s (`pulses-s2`
    // and `twochan2` without reduce, twice each) follow; and the p85
    // tail falls among `pulses-c2` and `twochan3` without reduce and
    // `pulses-s3` with it (about 0.6 s).
    let mut cycle: Vec<usize> = (0..inputs.len()).collect();
    cycle.extend([4, 10, 9, 9, 13, 13]);
    Workload {
        cycle,
        // Each family at its cheapest mode: hslr and pcreq both ways,
        // the generated families with reduce on.
        cold: vec![0, 1, 2, 3, 5, 9, 11, 15],
        inputs,
        tail_q: 0.85,
    }
}

pub fn workload(name: &str, names: &Names) -> Option<Workload> {
    match name {
        "complete" => Some(complete(names)),
        "partial" => Some(partial(names)),
        _ => None,
    }
}

/// The span context of a traced operation.
type Trace<'a> = Option<(&'a mut Tracer, u64, usize)>;

fn stage<T>(tr: &mut Trace<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some((t, op, root)) => t.span(*op, Some(*root), name, f),
        None => f(),
    }
}

/// Runs `input` through the staged chain, one public stage call at a
/// time, each inside a span when traced.
fn chain(input: &Input, tr: &mut Trace<'_>) -> reshuffle::Result<Synthesized> {
    let parsed = stage(tr, "core.from_g", || Pipeline::from_g(&input.g))?;
    let expanded = stage(tr, "core.expand", || {
        if input.expand {
            parsed.expand(&ExpansionOptions::default())
        } else {
            parsed.complete()
        }
    })?;
    let reduced = stage(tr, "core.reduce", || {
        if input.reduce {
            expanded.reduce(&ReduceOptions::default())
        } else {
            Ok(expanded.skip_reduce())
        }
    })?;
    let resolved = stage(tr, "core.resolve", || {
        reduced.resolve(&CscOptions::default())
    })?;
    stage(tr, "core.synthesize", || {
        resolved.synthesize(ImplStyle::ComplexGate)
    })
}

fn run_op(input: &Input, tracer: Option<(&mut Tracer, u64)>) -> reshuffle::Result<Synthesized> {
    let mut tr: Trace<'_> = tracer.map(|(t, op)| {
        let root = t.begin(op, None, "op");
        (t, op, root)
    });
    let out = chain(input, &mut tr);
    if let Some((t, _, root)) = tr {
        t.end(root);
    }
    out
}

/// What every operation on an input must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    netlist: String,
    inserted: usize,
    states: usize,
}

fn outcome(done: &Synthesized) -> Outcome {
    let s = done.synthesis();
    Outcome {
        netlist: s.netlist.describe(),
        inserted: s.inserted.len(),
        states: s.sg.num_states(),
    }
}

/// Quality of one synthesized input, measured as the `tables` report
/// does, outside any timed region.
struct Quality {
    pin: Pin,
    /// Non-input signals of the final circuit: outputs plus inserted
    /// state signals.
    signals: usize,
}

fn quality(done: &Synthesized) -> Result<Quality, String> {
    let s = done.synthesis();
    let delays = DelayModel::uniform(&s.stg, 2.0, 1.0);
    let run = simulate(&s.stg, &delays, &SimOptions::default()).map_err(|e| e.to_string())?;
    Ok(Quality {
        pin: pin(literal_estimate(&s.sg), run.period, s.inserted.len()),
        signals: s
            .sg
            .signals()
            .iter()
            .filter(|sig| sig.kind.is_noninput())
            .count(),
    })
}

/// The cold pass, run in a fresh child process: parse plus first
/// synthesis of each cold input, then five reference-kernel calls whose
/// median normalizes it. Prints `cold <normalized s> <raw s>`.
pub fn cold(name: &str, seed: u64) -> i32 {
    let Some(w) = workload(name, &Names::from_seed(seed)) else {
        eprintln!("no library workload named {name}");
        return 2;
    };
    let t = Instant::now();
    for &i in &w.cold {
        if let Err(e) = run_op(&w.inputs[i], None) {
            eprintln!("cold pass: {}: {e}", w.inputs[i].label);
            return 1;
        }
    }
    let raw_ms = ms(t.elapsed());
    let mut refs: Vec<f64> = (0..5).map(|_| ms(measure::ref_kernel())).collect();
    let ref_ms = nearest_rank(&mut refs, 0.5);
    println!(
        "cold {} {}",
        raw_ms / ref_ms * REF_NOMINAL_MS / 1e3,
        raw_ms / 1e3
    );
    0
}

/// Median normalized and raw cold pass over [`COLD_RUNS`] fresh
/// processes, one after the other.
fn setup(name: &str, seed: u64) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut norm = Vec::new();
    let mut raw = Vec::new();
    for _ in 0..COLD_RUNS {
        let out = Command::new(&exe)
            .args(["--cold", name, "--seed", &seed.to_string()])
            .output()
            .map_err(|e| format!("cold pass: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text
            .lines()
            .find_map(|l| l.strip_prefix("cold "))
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("cold pass failed: {}", String::from_utf8_lossy(&out.stderr)))?;
        let mut v = line
            .split(' ')
            .map(|x| x.parse::<f64>().unwrap_or(f64::NAN));
        norm.push(v.next().unwrap_or(f64::NAN));
        raw.push(v.next().unwrap_or(f64::NAN));
    }
    Ok((nearest_rank(&mut norm, 0.5), nearest_rank(&mut raw, 0.5)))
}

struct Sample {
    input: usize,
    raw_ms: f64,
    norm_ms: f64,
    traced: bool,
    ok: bool,
}

pub fn run(name: &str, seed: u64, seconds: u64, trace: bool) -> i32 {
    let names = Names::from_seed(seed);
    let Some(w) = workload(name, &names) else {
        eprintln!("no library workload named {name}");
        return 2;
    };
    let (setup_norm, setup_raw) = match setup(name, seed) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };

    // Reference pass: one synthesis per distinct input, checked against
    // its pin, outside any timed region; it warms the process up too.
    // It also measures each synthesis's peak resident set: the inputs
    // run in a fixed order in a young process, each from a fresh peak,
    // so every seed measures the same thing. (In the measured phase the
    // memory the allocator kept from the previous, seeded operation
    // would dominate.)
    let mut refs: Vec<Option<Outcome>> = Vec::new();
    let (mut lits, mut cycle, mut signals) = (0u64, 0.0f64, 0u64);
    let mut peak_mb = 0.0;
    for input in &w.inputs {
        measure::reset_peak_rss();
        let result = run_op(input, None);
        peak_mb += measure::peak_rss_mb() / w.inputs.len() as f64;
        let checked = result
            .map_err(|e| e.to_string())
            .and_then(|done| Ok((quality(&done)?, outcome(&done))));
        match checked {
            Ok((q, o)) => {
                lits += u64::from(q.pin.lits);
                cycle += q.pin.cycle;
                signals += q.signals as u64;
                let states_ok = input.states.is_none_or(|s| s == o.states);
                if q.pin == input.pin && states_ok {
                    refs.push(Some(o));
                } else {
                    eprintln!(
                        "{}: measured {:?} with {} states, reference {:?} with {:?} states",
                        input.label, q.pin, o.states, input.pin, input.states
                    );
                    refs.push(None);
                }
            }
            Err(e) => {
                eprintln!("{}: reference run failed: {e}", input.label);
                refs.push(None);
            }
        }
    }

    // Measured phase: whole cycles in seeded orders, starting another
    // only while it is due to end less than half a cycle past the time.
    // A traced run alternates untraced and traced cycles, so the
    // tracing overhead compares the same inputs.
    let mut rng = Rng::new(seed);
    let mut tracer = Tracer::new();
    let mut norm = Normalizer::new();
    let mut samples: Vec<Sample> = Vec::new();
    let t0 = Instant::now();
    let mut c = 0u64;
    let due = |c: u64| {
        let elapsed = t0.elapsed().as_secs_f64();
        let per_cycle = if c == 0 { 0.0 } else { elapsed / c as f64 };
        elapsed + per_cycle / 2.0 < seconds as f64 || c < if trace { 2 } else { 1 }
    };
    while due(c) {
        let traced = trace && c % 2 == 1;
        let mut order = w.cycle.clone();
        rng.shuffle(&mut order);
        for i in order {
            let op = samples.len() as u64;
            let input = &w.inputs[i];
            let (result, raw_ms) = if traced {
                norm.time(|| run_op(input, Some((&mut tracer, op))))
            } else {
                norm.time(|| run_op(input, None))
            };
            let ok = match (&result, &refs[i]) {
                (Ok(done), Some(reference)) => outcome(done) == *reference,
                _ => false,
            };
            if let Err(e) = &result {
                eprintln!("{}: {e}", input.label);
            }
            drop(result);
            samples.push(Sample {
                input: i,
                raw_ms,
                norm_ms: 0.0,
                traced,
                ok,
            });
        }
        c += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    for (s, norm_ms) in samples.iter_mut().zip(norm.normalized()) {
        s.norm_ms = norm_ms;
    }

    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let correct = failed == 0 && refs.iter().all(Option::is_some);
    let ref_ms = norm.ref_median_ms();
    let untraced: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    let mut normed: Vec<f64> = untraced.iter().map(|s| s.norm_ms).collect();
    let mut raws: Vec<f64> = untraced.iter().map(|s| s.raw_ms).collect();
    let n = normed.len() as f64;
    let throughput = n / (normed.iter().sum::<f64>() / 1e3);
    let throughput_raw = n / (raws.iter().sum::<f64>() / 1e3);
    let p50 = nearest_rank(&mut normed, 0.5);
    let p50_raw = nearest_rank(&mut raws, 0.5);
    let tail = nearest_rank(&mut normed, w.tail_q);
    let tail_raw = nearest_rank(&mut raws, w.tail_q);
    let beyond = normed.iter().filter(|v| **v > tail).count();

    println!(
        "workload {name} seed {seed}: {} operations in {} cycles over {wall_s:.1} s, {failed} failed",
        samples.len(),
        c
    );
    println!(
        "tail percentile p{} over {} samples, {beyond} beyond it",
        (w.tail_q * 100.0).round(),
        normed.len()
    );
    println!("raw ref_kernel_ms {ref_ms}");
    println!("raw setup_s {setup_raw}");
    println!("raw throughput_per_s {throughput_raw}");
    println!("raw p50_ms {p50_raw}");
    println!("raw tail_ms {tail_raw}");

    let mut report = Report::default();
    if !trace {
        report.add("setup_s", setup_norm, "s");
        report.add("throughput_per_s", throughput, "1/s");
        report.add("p50_ms", p50, "ms");
        report.add("tail_ms", tail, "ms");
        report.add("peak_rss_mb", peak_mb, "MB");
        report.add(
            "ok_frac",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        );
        report.add("literals", lits as f64, "count");
        report.add("cycle", cycle, "delay");
        report.add("circuit_signals", signals as f64, "count");
    } else {
        let acc = traced_layers(&w, &samples, &mut tracer, ref_ms);
        tracer.write(name, seed);
        report.metrics = layers::report(&acc);
    }
    report.print(correct, attempted, failed);
    0
}

/// Per-layer metrics of a traced run: stage spans of the traced
/// operations, the replay split of every distinct input (weighted by
/// how often the run executed it), and the tracing overhead.
fn traced_layers(w: &Workload, samples: &[Sample], tracer: &mut Tracer, ref_ms: f64) -> Acc {
    let mut acc = Acc::default();

    // Core stage spans of traced operations, per traced operation.
    let traced_ops = samples.iter().filter(|s| s.traced).count().max(1) as f64;
    let self_ms = tracer.self_ms();
    for (span, own) in tracer.spans.iter().zip(&self_ms) {
        match span.name {
            "op" => {
                acc.add("core.op_ms", span.ms() / traced_ops);
                acc.add("core.unattributed_ms", own / traced_ops);
            }
            "core.from_g" => acc.add("core.from_g_ms", span.ms() / traced_ops),
            "core.expand" => acc.add("core.expand_ms", span.ms() / traced_ops),
            "core.reduce" => acc.add("core.reduce_ms", span.ms() / traced_ops),
            "core.resolve" => acc.add("core.resolve_ms", span.ms() / traced_ops),
            "core.synthesize" => acc.add("core.synthesize_ms", span.ms() / traced_ops),
            _ => {}
        }
    }

    // Replay split, weighted by each input's share of the operations.
    let mut counts = vec![0usize; w.inputs.len()];
    for s in samples {
        counts[s.input] += 1;
    }
    let total = samples.len().max(1) as f64;
    let mut ratios = Acc::default();
    for (i, input) in w.inputs.iter().enumerate() {
        let op = (1u64 << 32) + i as u64;
        let r = replay(input, tracer, op);
        let share = counts[i] as f64 / total;
        for (name, ..) in layers::LAYERS {
            let v = r.get(name);
            if v != 0.0 {
                acc.add(name, v * share);
            }
        }
        // Bases of the ratio metrics, summed over the same shares.
        for base in [
            "cands", "points", "moves", "scored", "inserted", "tried", "build_ns",
        ] {
            ratios.add_base(base, r.base(base) * share);
        }
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    acc.set(
        "handshake.candidates_per_point",
        ratio(ratios.base("cands"), ratios.base("points")),
    );
    acc.set(
        "reduce.moves_per_scored",
        ratio(ratios.base("moves"), ratios.base("scored")),
    );
    acc.set(
        "resolve.inserted_per_tried",
        ratio(ratios.base("inserted"), ratios.base("tried")),
    );
    acc.set(
        "sg.ns_per_state",
        ratio(ratios.base("build_ns"), acc.get("sg.states")),
    );

    // Tracing overhead: traced vs untraced operations, normalized.
    let mean = |traced: bool| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.norm_ms)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    acc.set("obs.overhead_pct", (mean(true) / mean(false) - 1.0) * 100.0);
    acc.set("bench.ref_kernel_ms", ref_ms);

    let stages: f64 = [
        "core.from_g_ms",
        "core.expand_ms",
        "core.reduce_ms",
        "core.resolve_ms",
        "core.synthesize_ms",
    ]
    .iter()
    .map(|n| acc.get(n))
    .sum();
    println!(
        "stage calls {stages:.3} ms + unattributed {:.3} ms = {:.3} ms per traced operation \
         (measured {:.3} ms)",
        acc.get("core.unattributed_ms"),
        stages + acc.get("core.unattributed_ms"),
        acc.get("core.op_ms")
    );
    println!(
        "tracing overhead {:.2}% (traced vs untraced operations, normalized)",
        acc.get("obs.overhead_pct")
    );
    acc
}

/// Times `f` inside a replay span, returning its result and ms.
fn sub<T>(
    tracer: &mut Tracer,
    op: u64,
    root: usize,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t = Instant::now();
    let out = tracer.span(op, Some(root), name, f);
    (out, ms(t.elapsed()))
}

/// Replays what the pipeline does to `input`, calling the sub-stage
/// public functions directly, to split the stages that have no spans of
/// their own. Candidates run one after the other here (the pipeline
/// runs them on two threads), so the split is work, not wall time.
fn replay(input: &Input, tracer: &mut Tracer, op: u64) -> Acc {
    let mut acc = Acc::default();
    let root = tracer.begin(op, None, "replay");
    let (stg, t) = sub(tracer, op, root, "petri.parse", || parse_g(&input.g));
    acc.add("petri.parse_ms", t);
    let Ok(mut stg) = stg else {
        tracer.end(root);
        return acc;
    };
    let mut cands: Vec<(Stg, StateGraph)> = Vec::new();
    if !input.expand {
        let (stats, t) = sub(tracer, op, root, "petri.prereduce", || prereduce(&mut stg));
        acc.add("petri.prereduce_ms", t);
        if let Ok(stats) = stats {
            acc.add("petri.prereduce_places", stats.places_removed as f64);
            acc.add(
                "petri.prereduce_transitions",
                stats.transitions_removed as f64,
            );
        }
        let (_, t_markings) = sub(tracer, op, root, "sg.markings", || {
            ReachabilityGraph::explore_threads(
                stg.net(),
                &stg.initial_marking(),
                DEFAULT_STATE_BUDGET,
                0,
            )
        });
        let (built, t_build) = sub(tracer, op, root, "sg.build", || {
            build_state_graph_stats(&stg, &BuildOptions::default())
        });
        acc.add("sg.markings_ms", t_markings);
        acc.add("sg.build_ms", t_build);
        acc.add("sg.encode_ms", (t_build - t_markings).max(0.0));
        if let Ok((sg, stats)) = built {
            acc.add("sg.states", stats.states as f64);
            acc.add("sg.arcs", stats.arcs as f64);
            acc.add("sg.peak_frontier", stats.peak_frontier as f64);
            acc.add_base("build_ns", t_build * 1e6);
            let (_, t) = sub(tracer, op, root, "sg.si_gate", || speed_independence(&sg));
            acc.add("sg.si_gate_ms", t);
            cands.push((stg, sg));
        }
    } else {
        let (expansion, t) = sub(tracer, op, root, "handshake.expand", || {
            expand_handshakes_stats(&stg, &ExpansionOptions::default())
        });
        acc.add("handshake.expand_ms", t);
        if let Ok(x) = expansion {
            let s = x.stats;
            acc.add("handshake.points", s.points as f64);
            acc.add("handshake.infeasible", s.infeasible as f64);
            acc.add(
                "handshake.duplicates",
                (s.deduped_graphs + s.deduped_symmetry) as f64,
            );
            acc.add("handshake.prefix_hits", s.prefix_hits as f64);
            acc.add("handshake.products", s.restriction_products as f64);
            acc.add_base("cands", x.reshufflings.len() as f64);
            acc.add_base("points", s.points as f64);
            for r in x.reshufflings {
                let (si, t) = sub(tracer, op, root, "sg.si_gate", || speed_independence(&r.sg));
                acc.add("sg.si_gate_ms", t);
                if si.is_speed_independent() {
                    cands.push((r.stg, r.sg));
                }
            }
        }
    }

    let mut live: Vec<StateGraph> = Vec::new();
    for (stg, sg) in cands {
        let (stg, sg, known) = if input.reduce {
            let (r, t) = sub(tracer, op, root, "reduce.search", || {
                reduce_concurrency_from(&stg, sg, &ReduceOptions::default())
            });
            acc.add("reduce.search_ms", t);
            let Ok(r) = r else { continue };
            acc.add("reduce.scored", r.scored as f64);
            acc.add("reduce.pruned", r.pruned as f64);
            acc.add("reduce.moves", r.steps.len() as f64);
            acc.add_base("scored", r.scored as f64);
            acc.add_base("moves", r.steps.len() as f64);
            (r.stg, r.sg, Some(r.csc_conflicts))
        } else {
            (stg, sg, None)
        };
        let (stg, sg) = if known == Some(0) {
            (stg, sg)
        } else {
            let (analysis, t) = sub(tracer, op, root, "sg.csc", || analyze_csc(&sg));
            acc.add("sg.csc_ms", t);
            acc.add("sg.csc_conflicts", analysis.num_csc_conflicts() as f64);
            if analysis.has_csc() {
                (stg, sg)
            } else {
                let (r, t) = sub(tracer, op, root, "resolve.insert", || {
                    resolve_csc_analyzed(&stg, sg, &analysis, &CscOptions::default())
                });
                acc.add("resolve.ms", t);
                let Ok(r) = r else { continue };
                acc.add("resolve.tried", r.tried as f64);
                acc.add("resolve.inserted", r.inserted.len() as f64);
                acc.add_base("tried", r.tried as f64);
                acc.add_base("inserted", r.inserted.len() as f64);
                (r.stg, r.sg)
            }
        };
        let (netlist, t) = sub(tracer, op, root, "synth.derive", || {
            synthesize_complex_gates(&sg)
        });
        acc.add("synth.derive_ms", t);
        let mut codes = sg.codes().to_vec();
        codes.sort_unstable();
        codes.dedup();
        acc.add("synth.reachable_codes", codes.len() as f64);
        let Ok(netlist) = netlist else { continue };
        let (_, t) = sub(tracer, op, root, "synth.verify", || {
            verify_against_sg(&sg, &netlist.netlist)
        });
        acc.add("synth.verify_ms", t);
        if input.expand {
            // Only a pending selection ranks by the timed cycle.
            let (_, t) = sub(tracer, op, root, "score.simulate", || {
                simulate(
                    &stg,
                    &DelayModel::uniform(&stg, 2.0, 1.0),
                    &SimOptions::default(),
                )
            });
            acc.add("score.simulate_ms", t);
        }
        live.push(sg);
    }
    for sg in &live {
        let (_, t) = sub(tracer, op, root, "score.literal_estimate", || {
            literal_estimate(sg)
        });
        acc.add("score.literal_estimate_ms", t);
    }
    acc.add("score.candidates_ranked", live.len() as f64);
    tracer.end(root);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sources and request orders of one seed, as the measured
    /// phase would draw them over three cycles.
    fn inputs_of(name: &str, seed: u64) -> (Vec<String>, Vec<Vec<usize>>) {
        let w = workload(name, &Names::from_seed(seed)).expect("known workload");
        let mut rng = Rng::new(seed);
        let orders = (0..3)
            .map(|_| {
                let mut order = w.cycle.clone();
                rng.shuffle(&mut order);
                order
            })
            .collect();
        (w.inputs.into_iter().map(|i| i.g).collect(), orders)
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for name in ["complete", "partial"] {
            for seed in [0, 1, 12345] {
                assert_eq!(
                    inputs_of(name, seed),
                    inputs_of(name, seed),
                    "{name} seed {seed}"
                );
            }
            assert_ne!(
                inputs_of(name, 1).0,
                inputs_of(name, 2).0,
                "{name}: seeds 1 and 2"
            );
        }
    }
}
