//! Building a [`StateGraph`] from an [`Stg`]: reachability exploration
//! plus binary encoding.
//!
//! The construction explores *(marking, code)* pairs: firing `a+` sets
//! bit `a` (and is a consistency violation if already set), `a-` clears
//! it, `a~` toggles it, dummies leave the code unchanged. For rise/fall
//! signals the initial value is inferred first by constraint propagation
//! over the plain marking graph (explicit `.g` files rarely declare
//! initial values); toggle signals default to the STG's declared initial
//! value or 0.
//!
//! For STGs without toggle edges a marking must encode to a unique code;
//! reaching one marking with two codes is reported as an inconsistency
//! (petrify's semantics). With toggle edges (2-phase specifications) the
//! `(marking, parity)` unfolding is the intended behaviour.

use std::collections::{HashMap, VecDeque};

use reshuffle_obs::{FieldVal, SpanCtx};
use reshuffle_petri::sharded::{self, ExploreOptions};
use reshuffle_petri::{Polarity, ReachabilityGraph, Signal, SignalId, Stg};

use crate::error::{Result, SgError};
use crate::sg::{EventId, EventInfo, StateGraph};

/// Options for state-graph construction.
///
/// # Thread-count independence
///
/// The build explores with a sharded parallel frontier and then
/// renumbers states canonically, so the resulting graph — ids, arcs,
/// fingerprint, `Debug` output — is **byte-identical for every value
/// of `threads`**:
///
/// ```
/// use reshuffle_petri::parse_g;
/// use reshuffle_sg::{build_state_graph_with, BuildOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stg = parse_g(
///     ".model xyz\n.inputs x\n.outputs y z\n.graph\n\
///      x+ y+\ny+ z+\nz+ x-\nx- y-\ny- z-\nz- x+\n\
///      .marking { <z-,x+> }\n.end\n",
/// )?;
/// let serial = build_state_graph_with(
///     &stg,
///     &BuildOptions { threads: 1, ..Default::default() },
/// )?;
/// let parallel = build_state_graph_with(
///     &stg,
///     &BuildOptions { threads: 8, ..Default::default() },
/// )?;
/// assert_eq!(serial.fingerprint(), parallel.fingerprint());
/// assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Cap on the number of explored states.
    pub state_budget: usize,
    /// Worker threads for the sharded reachability frontier: `0` (the
    /// default) resolves to the machine's available parallelism, `1`
    /// forces a serial build. The default can be pinned globally with
    /// the `RESHUFFLE_THREADS` environment variable — CI uses that to
    /// assert thread-count independence of whole reports.
    pub threads: usize,
    /// Trace context: the build opens `bfs.markings` and `bfs.encode`
    /// child spans (level 1) and per-shard `bfs.shard` spans (level 2)
    /// under it. Disabled by default; never affects the built graph.
    pub span: SpanCtx,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            state_budget: reshuffle_petri::DEFAULT_STATE_BUDGET,
            threads: std::env::var("RESHUFFLE_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            span: SpanCtx::default(),
        }
    }
}

impl BuildOptions {
    /// Attach a trace context for the exploration spans.
    #[must_use]
    pub fn with_span(mut self, span: SpanCtx) -> BuildOptions {
        self.span = span;
        self
    }
}

/// What one state-graph build did, for diagnostics: sizes of the
/// result plus the exploration's peak frontier (a proxy for exploitable
/// parallelism) and the worker count actually used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildStats {
    /// States in the built graph.
    pub states: usize,
    /// Arcs in the built graph.
    pub arcs: usize,
    /// Largest breadth-first frontier across the marking and encoding
    /// explorations.
    pub peak_frontier: usize,
    /// Worker threads the build resolved to.
    pub threads: usize,
}

/// Builds the state graph of `stg` with default options.
///
/// # Errors
///
/// See [`build_state_graph_with`].
pub fn build_state_graph(stg: &Stg) -> Result<StateGraph> {
    build_state_graph_with(stg, &BuildOptions::default())
}

/// Infers the initial value of every signal.
///
/// Rise/fall signals: constraint propagation over the marking graph
/// (`a+` fixes 0 at its source marking and 1 at its target). Toggle or
/// constant signals: the explicit initial value, or 0.
fn infer_initial_values(stg: &Stg, rg: &ReachabilityGraph) -> Result<Vec<bool>> {
    let n = rg.len();
    let num_signals = stg.num_signals();
    // Which signals need inference: rise/fall edges, no explicit value.
    let mut needs = vec![false; num_signals];
    for t in stg.transitions() {
        if let Some(e) = stg.edge_of(t) {
            if matches!(e.polarity, Polarity::Rise | Polarity::Fall)
                && stg.initial_value(e.signal).is_none()
            {
                needs[e.signal.index()] = true;
            }
        }
    }
    let mut initial = vec![false; num_signals];
    for s in stg.signals() {
        if let Some(v) = stg.initial_value(s) {
            initial[s.index()] = v;
        }
    }
    if !needs.iter().any(|&b| b) {
        return Ok(initial);
    }

    // values[marking][signal]
    let mut values: Vec<Vec<Option<bool>>> = vec![vec![None; num_signals]; n];
    let assign = |values: &mut Vec<Vec<Option<bool>>>,
                  m: usize,
                  sig: SignalId,
                  v: bool|
     -> std::result::Result<bool, SgError> {
        match values[m][sig.index()] {
            None => {
                values[m][sig.index()] = Some(v);
                Ok(true)
            }
            Some(old) if old == v => Ok(false),
            Some(old) => Err(SgError::Inconsistent {
                signal: stg.signal(sig).name.clone(),
                witness: format!(
                    "marking #{m} requires {} = {} and {}",
                    stg.signal(sig).name,
                    old as u8,
                    v as u8
                ),
            }),
        }
    };

    // Seed with rise/fall endpoint constraints.
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut in_queue = vec![false; n];
    let push = |queue: &mut VecDeque<usize>, in_queue: &mut Vec<bool>, m: usize| {
        if !in_queue[m] {
            in_queue[m] = true;
            queue.push_back(m);
        }
    };
    for m in 0..n {
        for &(t, tgt) in rg.successors(m as u32) {
            if let Some(edge) = stg.edge_of(t) {
                if !needs[edge.signal.index()] {
                    continue;
                }
                let (pre, post) = match edge.polarity {
                    Polarity::Rise => (false, true),
                    Polarity::Fall => (true, false),
                    Polarity::Toggle => continue,
                };
                if assign(&mut values, m, edge.signal, pre)? {
                    push(&mut queue, &mut in_queue, m);
                }
                if assign(&mut values, tgt as usize, edge.signal, post)? {
                    push(&mut queue, &mut in_queue, tgt as usize);
                }
            }
        }
    }

    // Propagate equalities: along any arc not switching the signal, the
    // value is preserved (in both directions).
    let pred = {
        let mut p: Vec<Vec<(usize, reshuffle_petri::TransitionId)>> = vec![Vec::new(); n];
        for m in 0..n {
            for &(t, tgt) in rg.successors(m as u32) {
                p[tgt as usize].push((m, t));
            }
        }
        p
    };
    while let Some(m) = queue.pop_front() {
        in_queue[m] = false;
        let snapshot = values[m].clone();
        for &(t, tgt) in rg.successors(m as u32) {
            let switched = stg.edge_of(t).map(|e| e.signal);
            for (i, v) in snapshot.iter().enumerate() {
                let (Some(v), sig) = (*v, SignalId::from_index(i)) else {
                    continue;
                };
                if !needs[i] || switched == Some(sig) {
                    continue;
                }
                if assign(&mut values, tgt as usize, sig, v)? {
                    push(&mut queue, &mut in_queue, tgt as usize);
                }
            }
        }
        for &(src, t) in &pred[m] {
            let switched = stg.edge_of(t).map(|e| e.signal);
            for (i, v) in snapshot.iter().enumerate() {
                let (Some(v), sig) = (*v, SignalId::from_index(i)) else {
                    continue;
                };
                if !needs[i] || switched == Some(sig) {
                    continue;
                }
                if assign(&mut values, src, sig, v)? {
                    push(&mut queue, &mut in_queue, src);
                }
            }
        }
    }

    for (i, need) in needs.iter().enumerate() {
        if *need {
            // Default an unconstrained signal (can happen when the
            // marking graph never switches it) to 0.
            initial[i] = values[0][i].unwrap_or(false);
        }
    }
    Ok(initial)
}

/// Builds the state graph of `stg`.
///
/// The construction runs two sharded parallel breadth-first
/// explorations ([`reshuffle_petri::sharded`]) — the raw marking graph,
/// then the *(marking, code)* encoding product — each followed by a
/// canonical renumbering, so the result is identical for every
/// [`BuildOptions::threads`] value. The graph is assembled directly
/// into the compressed CSR layout; markings stay behind in the
/// exploration.
///
/// # Errors
///
/// * [`SgError::Petri`] if the net is unsafe, has source transitions or
///   exceeds the state budget;
/// * [`SgError::TooManySignals`] for more than 64 signals;
/// * [`SgError::Inconsistent`] if no consistent binary encoding exists.
pub fn build_state_graph_with(stg: &Stg, opts: &BuildOptions) -> Result<StateGraph> {
    build_state_graph_stats(stg, opts).map(|(sg, _)| sg)
}

/// [`build_state_graph_with`], also reporting [`BuildStats`] (state,
/// arc and peak-frontier counters) for diagnostics.
///
/// # Errors
///
/// See [`build_state_graph_with`].
pub fn build_state_graph_stats(stg: &Stg, opts: &BuildOptions) -> Result<(StateGraph, BuildStats)> {
    stg.validate()?;
    if stg.num_signals() > 64 {
        return Err(SgError::TooManySignals(stg.num_signals()));
    }
    let sp_markings = opts.span.span("bfs.markings");
    let rg = ReachabilityGraph::explore_opts(
        stg.net(),
        &stg.initial_marking(),
        &ExploreOptions::new(opts.threads, opts.state_budget).with_span(sp_markings.ctx()),
    )?;
    sp_markings.end(&[
        ("states", FieldVal::U64(rg.len() as u64)),
        ("peak_frontier", FieldVal::U64(rg.peak_frontier() as u64)),
    ]);
    let initial_values = infer_initial_values(stg, &rg)?;
    let mut code0 = 0u64;
    for (i, &v) in initial_values.iter().enumerate() {
        if v {
            code0 |= 1 << i;
        }
    }
    let has_toggle = stg
        .transitions()
        .any(|t| matches!(stg.edge_of(t).map(|e| e.polarity), Some(Polarity::Toggle)));

    // Explore (marking-node, code) pairs. Markings are referenced by
    // their node id in the already-explored reachability graph, so the
    // frontier keys are plain `(u32, u64)` pairs — no marking clones.
    let sp_encode = opts.span.span("bfs.encode");
    let explored = sharded::explore(
        (0u32, code0),
        &ExploreOptions::new(opts.threads, opts.state_budget).with_span(sp_encode.ctx()),
        |&(mnode, code), out: &mut Vec<(EventId, (u32, u64))>| {
            for &(t, mtgt) in rg.successors(mnode) {
                let next_code = match stg.edge_of(t) {
                    None => code,
                    Some(edge) => {
                        let bit = 1u64 << edge.signal.index();
                        let cur = code & bit != 0;
                        let ok = match edge.polarity {
                            Polarity::Rise => !cur,
                            Polarity::Fall => cur,
                            Polarity::Toggle => true,
                        };
                        if !ok {
                            return Err(SgError::Inconsistent {
                                signal: stg.signal(edge.signal).name.clone(),
                                witness: format!(
                                    "firing {} while {} is already {}",
                                    stg.transition_name(t),
                                    stg.signal(edge.signal).name,
                                    cur as u8
                                ),
                            });
                        }
                        match edge.polarity {
                            Polarity::Rise => code | bit,
                            Polarity::Fall => code & !bit,
                            Polarity::Toggle => code ^ bit,
                        }
                    }
                };
                out.push((EventId(t.0), (mtgt, next_code)));
            }
            Ok(())
        },
        |b| SgError::Petri(reshuffle_petri::PetriError::StateBudgetExceeded(b)),
    )?;
    sp_encode.end(&[
        ("states", FieldVal::U64(explored.keys.len() as u64)),
        ("arcs", FieldVal::U64(explored.num_arcs() as u64)),
        (
            "peak_frontier",
            FieldVal::U64(explored.peak_frontier as u64),
        ),
    ]);

    // Without toggles, a marking reached under two codes is inconsistent.
    if !has_toggle {
        let mut seen: HashMap<u32, u64> = HashMap::new();
        for &(mnode, code) in &explored.keys {
            if let Some(&other) = seen.get(&mnode) {
                if other != code {
                    let diff = other ^ code;
                    let sig = SignalId::from_index(diff.trailing_zeros() as usize);
                    return Err(SgError::Inconsistent {
                        signal: stg.signal(sig).name.clone(),
                        witness: format!(
                            "marking {} is reachable with codes {code:b} and {other:b}",
                            rg.marking(mnode).display(stg.net())
                        ),
                    });
                }
            } else {
                seen.insert(mnode, code);
            }
        }
    }

    // Assemble the CSR arrays directly: codes and flat arcs (already in
    // ascending event order — reachability arcs fire transitions in id
    // order).
    let n = explored.keys.len();
    let num_arcs = explored.num_arcs();
    let mut codes = Vec::with_capacity(n);
    let mut succ_offsets = Vec::with_capacity(n + 1);
    let mut arc_events = Vec::with_capacity(num_arcs);
    let mut arc_targets = Vec::with_capacity(num_arcs);
    succ_offsets.push(0);
    for (i, &(_, code)) in explored.keys.iter().enumerate() {
        codes.push(code);
        for &(e, t) in &explored.succs[i] {
            arc_events.push(e);
            arc_targets.push(t);
        }
        succ_offsets.push(arc_events.len() as u32);
    }
    let stats = BuildStats {
        states: n,
        arcs: num_arcs,
        peak_frontier: rg.peak_frontier().max(explored.peak_frontier),
        threads: sharded::effective_threads(opts.threads),
    };
    let sg = StateGraph::from_csr(
        stg.name.clone(),
        signal_table(stg),
        event_table(stg),
        codes,
        succ_offsets,
        arc_events,
        arc_targets,
        0,
    )?;
    Ok((sg, stats))
}

/// The signal table of a state graph built from `stg`.
pub(crate) fn signal_table(stg: &Stg) -> Vec<Signal> {
    (0..stg.num_signals())
        .map(|i| stg.signal(SignalId::from_index(i)).clone())
        .collect()
}

/// The event table of a state graph built from `stg`: one event per
/// transition, in transition order.
pub(crate) fn event_table(stg: &Stg) -> Vec<EventInfo> {
    stg.transitions()
        .map(|t| EventInfo {
            label: stg.transition_name(t).to_string(),
            edge: stg.edge_of(t),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshuffle_petri::{parse_g, SignalKind};

    const FIG1: &str = "\
.model fig1
.inputs Req
.outputs Ack
.graph
Ack+ Req-
Req- Req+ Ack-
Ack- Ack+
Req+ Ack+
.marking { <Req+,Ack+> <Ack-,Ack+> }
.end
";

    #[test]
    fn fig1_has_five_states() {
        let stg = parse_g(FIG1).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        assert_eq!(sg.num_states(), 5);
        // Initial state of Fig. 1(d) is 0*1 (Ack excited low, Req high).
        let init = sg.initial();
        let ack = sg.signal_by_name("Ack").unwrap();
        let req = sg.signal_by_name("Req").unwrap();
        assert!(!sg.value(init, ack));
        assert!(sg.value(init, req));
        let rendered = sg.render_state(init);
        assert!(rendered.contains('*'), "{rendered}");
    }

    #[test]
    fn inconsistent_stg_rejected() {
        // a+ followed by a+ without a- in between.
        let src = "\
.model bad
.inputs a
.graph
a+ a+/2
a+/2 a+
.marking { <a+/2,a+> }
.end
";
        let stg = parse_g(src).unwrap();
        let e = build_state_graph(&stg).unwrap_err();
        assert!(matches!(e, SgError::Inconsistent { .. }), "{e}");
    }

    #[test]
    fn toggle_signals_unfold_parity() {
        // A 2-phase cycle: the marking graph has 2 markings but the
        // state graph unfolds to 4 states tracking signal parity.
        let src = "\
.model t2
.inputs a
.outputs b
.graph
a~ b~
b~ a~
.marking { <b~,a~> }
.end
";
        let stg = parse_g(src).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        assert_eq!(sg.num_states(), 4);
        let a = sg.signal_by_name("a").unwrap();
        assert!(!sg.value(0, a));
        let e = sg.event_by_label("a~").unwrap();
        let s1 = sg.step(0, e).unwrap();
        assert!(sg.value(s1, a));
        // Two toggles of a bring it back.
        let eb = sg.event_by_label("b~").unwrap();
        let s2 = sg.step(s1, eb).unwrap();
        let s3 = sg.step(s2, e).unwrap();
        assert!(!sg.value(s3, a));
    }

    #[test]
    fn explicit_initial_value_respected() {
        let src = "\
.model t2
.inputs a
.outputs b
.graph
a~ b~
b~ a~
.marking { <b~,a~> }
.end
";
        let mut stg = parse_g(src).unwrap();
        let a = stg.signal_by_name("a").unwrap();
        stg.set_initial_value(a, true);
        let sg = build_state_graph(&stg).unwrap();
        assert!(sg.value(0, a));
    }

    #[test]
    fn constant_signal_defaults() {
        let mut stg = reshuffle_petri::Stg::new("c");
        let a = stg.add_signal("a", SignalKind::Input).unwrap();
        let _unused = stg.add_signal("quiet", SignalKind::Output).unwrap();
        let t1 = stg.add_edge_transition(a, reshuffle_petri::Polarity::Rise);
        let t2 = stg.add_edge_transition(a, reshuffle_petri::Polarity::Fall);
        stg.connect(t1, t2).unwrap();
        let p = stg.connect(t2, t1).unwrap();
        stg.set_initial_places(&[p]);
        let sg = build_state_graph(&stg).unwrap();
        let q = sg.signal_by_name("quiet").unwrap();
        for s in sg.state_ids() {
            assert!(!sg.value(s, q));
        }
    }

    #[test]
    fn codes_differ_by_one_bit_along_arcs() {
        let stg = parse_g(FIG1).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        for s in sg.state_ids() {
            for (e, t) in sg.succ(s) {
                let diff = sg.code(s) ^ sg.code(t);
                if sg.event(e).edge.is_some() {
                    assert_eq!(diff.count_ones(), 1);
                } else {
                    assert_eq!(diff, 0);
                }
            }
        }
    }

    #[test]
    fn budget_respected() {
        let stg = parse_g(FIG1).unwrap();
        let e = build_state_graph_with(
            &stg,
            &BuildOptions {
                state_budget: 2,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(e, SgError::Petri(_)));
    }

    #[test]
    fn initial_value_inference_fig1() {
        // Req must be inferred high: Req- fires before any Req+.
        let stg = parse_g(FIG1).unwrap();
        let rg = ReachabilityGraph::explore_default(stg.net(), &stg.initial_marking()).unwrap();
        let vals = infer_initial_values(&stg, &rg).unwrap();
        let req = stg.signal_by_name("Req").unwrap();
        let ack = stg.signal_by_name("Ack").unwrap();
        assert!(vals[req.index()]);
        assert!(!vals[ack.index()]);
    }
}
