//! Building a [`StateGraph`] from an [`Stg`]: reachability exploration
//! plus binary encoding.
//!
//! The build explores the marking graph with one serial breadth-first
//! pass ([`ReachabilityGraph::explore`], over flat arrays, its arcs
//! written as CSR), then labels it with codes in a second one. A state
//! is a *(marking, parity)* pair, where the parity is the XOR of the
//! signal bits of every edge fired since the initial marking (dummies
//! flip nothing), and its code is `init ^ parity`. Each rise/fall
//! signal's initial value is fixed by the edges that switch it (`a+`
//! fires at 0, `a-` at 1); edges that disagree, or a marking reached
//! with two parities of such a signal, make the STG inconsistent
//! (petrify's semantics). Without toggle edges, state *i* is therefore
//! marking node *i*, and the graph takes the exploration's offset and
//! arc arrays by value; the labelling pass only computes codes. Toggle
//! signals (`a~`, 2-phase specifications) start at 0, as do signals
//! that never switch, and a marking reached with two parities of toggle
//! signals unfolds into one state per parity, with arcs of its own.
//!
//! Labelling stays a pass of its own, not fused into the exploration,
//! so that every exploration error (an unsafe firing, the state budget)
//! comes before every labelling error: a net that is both unsafe and
//! inconsistent reports [`PetriError::UnsafePlace`].

use std::collections::HashMap;

use reshuffle_obs::{FieldVal, SpanCtx};
use reshuffle_petri::{PetriError, Polarity, ReachabilityGraph, Signal, SignalId, Stg};

use crate::error::{Result, SgError};
use crate::sg::{EventId, EventInfo, StateGraph};

/// Options for state-graph construction.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Cap on the number of explored states.
    pub state_budget: usize,
    /// Trace context: the build opens `bfs.markings` and `bfs.encode`
    /// child spans under it. Disabled by default; never affects the
    /// built graph.
    pub span: SpanCtx,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            state_budget: reshuffle_petri::DEFAULT_STATE_BUDGET,
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
/// result plus the exploration's peak frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildStats {
    /// States in the built graph.
    pub states: usize,
    /// Arcs in the built graph.
    pub arcs: usize,
    /// Largest breadth-first frontier, by level, across the marking
    /// exploration and the labelling pass (equal unless toggle signals
    /// unfold markings).
    pub peak_frontier: usize,
}

/// Builds the state graph of `stg` with default options.
///
/// # Errors
///
/// See [`build_state_graph_with`].
pub fn build_state_graph(stg: &Stg) -> Result<StateGraph> {
    build_state_graph_with(stg, &BuildOptions::default())
}

/// Builds the state graph of `stg`.
///
/// [`ReachabilityGraph::explore`] numbers the marking graph
/// breadth-first from the initial marking, successors in ascending
/// transition order, and writes its arcs in the compressed CSR layout.
/// One breadth-first pass then labels it with codes (see the module
/// docs); without toggle signals the graph keeps the exploration's
/// arcs, and markings stay behind in the exploration. Both passes are
/// serial, so the result is canonical by construction.
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
    let rg = ReachabilityGraph::explore(stg.net(), &stg.initial_marking(), opts.state_budget)?;
    sp_markings.end(&[
        ("states", FieldVal::U64(rg.len() as u64)),
        ("peak_frontier", FieldVal::U64(rg.peak_frontier() as u64)),
    ]);
    let sp_encode = opts.span.span("bfs.encode");
    let markings_frontier = rg.peak_frontier();
    let (sg, peak_frontier) = label_codes(stg, rg, opts.state_budget)?;
    sp_encode.end(&[
        ("states", FieldVal::U64(sg.num_states() as u64)),
        ("arcs", FieldVal::U64(sg.num_arcs() as u64)),
        ("peak_frontier", FieldVal::U64(peak_frontier as u64)),
    ]);
    let stats = BuildStats {
        states: sg.num_states(),
        arcs: sg.num_arcs(),
        peak_frontier: markings_frontier.max(peak_frontier),
    };
    Ok((sg, stats))
}

/// Labels the marking graph `rg` with binary codes in one
/// breadth-first pass (see the module docs): states are *(marking
/// node, parity)* pairs, numbered in discovery order. Also returns the
/// pass's peak frontier, counted by level.
///
/// Without toggle signals state *i* is marking node *i*, so the pass
/// only computes codes and the graph takes over `rg`'s arc arrays;
/// with them it writes its own.
fn label_codes(stg: &Stg, rg: ReachabilityGraph, budget: usize) -> Result<(StateGraph, usize)> {
    let mut toggles = 0u64;
    for t in stg.transitions() {
        if let Some(e) = stg.edge_of(t).filter(|e| e.polarity == Polarity::Toggle) {
            toggles |= 1 << e.signal.index();
        }
    }
    let unfold = toggles != 0;
    let n = rg.len();
    let num_arcs = if unfold { rg.num_arcs() } else { 0 };
    // Per state: its marking node and parity (the code once `init` is
    // applied at the end).
    let mut nodes: Vec<u32> = Vec::with_capacity(n);
    let mut codes: Vec<u64> = Vec::with_capacity(n);
    let mut succ_offsets: Vec<u32> = Vec::with_capacity(if unfold { n + 1 } else { 0 });
    let mut arc_events: Vec<EventId> = Vec::with_capacity(num_arcs);
    let mut arc_targets: Vec<u32> = Vec::with_capacity(num_arcs);
    // Each marking's first state, and the later states that differ
    // from it on toggle signals only.
    let mut first = vec![u32::MAX; n];
    let mut unfolded: HashMap<(u32, u64), u32> = HashMap::new();
    // Initial values of the rise/fall signals, and which are fixed.
    let (mut init, mut fixed) = (0u64, 0u64);

    first[0] = 0;
    nodes.push(0);
    codes.push(0);
    succ_offsets.push(0);
    let (mut level_end, mut peak_frontier) = (1, 1);
    let mut head = 0;
    while head < nodes.len() {
        if head == level_end {
            level_end = nodes.len();
            peak_frontier = peak_frontier.max(level_end - head);
        }
        let (m, parity) = (nodes[head], codes[head]);
        head += 1;
        for (t, tgt) in rg.successors(m) {
            let mut next = parity;
            if let Some(edge) = stg.edge_of(t) {
                let bit = 1u64 << edge.signal.index();
                if edge.polarity != Polarity::Toggle {
                    // A rise fires at value 0 and a fall at 1, and the
                    // value is `init ^ parity`: the edge fixes `init`.
                    let at_one = edge.polarity == Polarity::Fall;
                    let want = if at_one { !parity } else { parity } & bit;
                    if fixed & bit != 0 && init & bit != want {
                        return Err(SgError::Inconsistent {
                            signal: stg.signal(edge.signal).name.clone(),
                            witness: format!(
                                "firing {} while {} is already {}",
                                stg.transition_name(t),
                                stg.signal(edge.signal).name,
                                u8::from(!at_one)
                            ),
                        });
                    }
                    fixed |= bit;
                    init |= want;
                }
                next ^= bit;
            }
            let f = first[tgt as usize];
            let slot = if f == u32::MAX || codes[f as usize] == next {
                &mut first[tgt as usize]
            } else {
                let diff = (codes[f as usize] ^ next) & !toggles;
                if diff != 0 {
                    let sig = SignalId::from_index(diff.trailing_zeros() as usize);
                    return Err(SgError::Inconsistent {
                        signal: stg.signal(sig).name.clone(),
                        witness: format!(
                            "marking {} is reached with {} both 0 and 1",
                            rg.marking(tgt).display(stg.net()),
                            stg.signal(sig).name
                        ),
                    });
                }
                unfolded.entry((tgt, next)).or_insert(u32::MAX)
            };
            if *slot == u32::MAX {
                if nodes.len() == budget {
                    return Err(SgError::Petri(PetriError::StateBudgetExceeded(budget)));
                }
                *slot = nodes.len() as u32;
                nodes.push(tgt);
                codes.push(next);
            }
            if unfold {
                arc_events.push(EventId(t.0));
                arc_targets.push(*slot);
            }
        }
        if unfold {
            succ_offsets.push(arc_events.len() as u32);
        }
    }
    for code in &mut codes {
        *code ^= init;
    }
    if unfold {
        // Toggle unfoldings grew past the one-state-per-marking sizing.
        codes.shrink_to_fit();
        succ_offsets.shrink_to_fit();
        arc_events.shrink_to_fit();
        arc_targets.shrink_to_fit();
    } else {
        let fired;
        (succ_offsets, fired, arc_targets) = rg.into_arcs();
        // Same layout: the collect reuses the transitions' allocation.
        arc_events = fired.into_iter().map(|t| EventId(t.0)).collect();
    }
    let sg = StateGraph::from_csr(
        stg.name.clone(),
        signal_table(stg),
        event_table(stg),
        codes,
        succ_offsets,
        arc_events,
        arc_targets,
    )?;
    Ok((sg, peak_frontier))
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

    /// A 2-phase cycle: the marking graph has 2 markings but the state
    /// graph unfolds to 4 states tracking signal parity.
    const TOGGLE2: &str = "\
.model t2
.inputs a
.outputs b
.graph
a~ b~
b~ a~
.marking { <b~,a~> }
.end
";

    #[test]
    fn toggle_signals_unfold_parity() {
        let stg = parse_g(TOGGLE2).unwrap();
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
    fn toggle_unfolding_respects_budget() {
        // Both markings fit the budget; their 4 states do not.
        let stg = parse_g(TOGGLE2).unwrap();
        let e = build_state_graph_with(
            &stg,
            &BuildOptions {
                state_budget: 3,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(e, SgError::Petri(PetriError::StateBudgetExceeded(3)));
    }
}
