//! Reference implementations of the per-state properties, written as
//! scans over each state's arcs: each one works out for itself which
//! edges a state enables, where the library reads
//! `StateGraph::excitation` once. The sweeps in `main.rs` pin the
//! library equal to these, lists and order included.

use std::collections::HashMap;

use reshuffle::logic::{complement, minimize, Cover};
use reshuffle_petri::{Polarity, SignalEdge, SignalId, SignalKind};
use reshuffle_sg::csc::{CodingConflict, CscReport};
use reshuffle_sg::props::{
    CommutativityWitness, NondeterminismWitness, PersistencyWitness, SpeedIndependenceReport,
};
use reshuffle_sg::{StateGraph, StateId};
use reshuffle_synth::{GcFunction, Mismatch, Netlist};

/// True if some event with the given edge is enabled in `s`.
pub fn enables_edge(sg: &StateGraph, s: StateId, edge: SignalEdge) -> bool {
    sg.succ(s)
        .events()
        .iter()
        .any(|&ev| sg.event(ev).edge == Some(edge))
}

/// The distinct signal edges enabled in `s`, in `(signal, polarity)`
/// order.
pub fn enabled_edges(sg: &StateGraph, s: StateId) -> Vec<SignalEdge> {
    let mut edges: Vec<SignalEdge> = sg
        .succ(s)
        .events()
        .iter()
        .filter_map(|&ev| sg.event(ev).edge)
        .collect();
    edges.sort_by_key(|e| (e.signal, e.polarity));
    edges.dedup();
    edges
}

/// The distinct non-input signal edges enabled in `s`.
fn enabled_noninput_edges(sg: &StateGraph, s: StateId) -> Vec<SignalEdge> {
    enabled_edges(sg, s)
        .into_iter()
        .filter(|e| sg.signal(e.signal).kind.is_noninput())
        .collect()
}

pub fn nondeterminism_witnesses(sg: &StateGraph) -> Vec<NondeterminismWitness> {
    let mut out = Vec::new();
    for s in sg.state_ids() {
        let succ = sg.succ(s);
        for i in 0..succ.len() {
            let (e1, t1) = succ.get(i);
            for j in i + 1..succ.len() {
                let (e2, t2) = succ.get(j);
                let (Some(a), Some(b)) = (sg.event(e1).edge, sg.event(e2).edge) else {
                    continue;
                };
                if a == b && t1 != t2 {
                    out.push(NondeterminismWitness {
                        state: s,
                        edge: a,
                        targets: (t1, t2),
                    });
                }
            }
        }
    }
    out
}

pub fn commutativity_witnesses(sg: &StateGraph) -> Vec<CommutativityWitness> {
    let mut out = Vec::new();
    for s in sg.state_ids() {
        let edges = enabled_edges(sg, s);
        for (i, &a) in edges.iter().enumerate() {
            for &b in &edges[i + 1..] {
                let (Some(sa), Some(sb)) = (sg.step_edge(s, a), sg.step_edge(s, b)) else {
                    continue;
                };
                let (Some(sab), Some(sba)) = (sg.step_edge(sa, b), sg.step_edge(sb, a)) else {
                    continue;
                };
                if sab != sba {
                    out.push(CommutativityWitness {
                        state: s,
                        edges: (a, b),
                        results: (sab, sba),
                    });
                }
            }
        }
    }
    out
}

pub fn persistency_witnesses(sg: &StateGraph) -> Vec<PersistencyWitness> {
    let mut out = Vec::new();
    for s in sg.state_ids() {
        let edges = enabled_edges(sg, s);
        for (ev, t) in sg.succ(s) {
            let Some(fired) = sg.event(ev).edge else {
                continue;
            };
            let fired_is_input = sg.signal(fired.signal).kind == SignalKind::Input;
            for &other in &edges {
                if other == fired {
                    continue;
                }
                let other_is_input = sg.signal(other.signal).kind == SignalKind::Input;
                // Input events may disable input events.
                if fired_is_input && other_is_input {
                    continue;
                }
                if !enables_edge(sg, t, other) {
                    out.push(PersistencyWitness {
                        state: s,
                        disabled: other,
                        by: fired,
                    });
                }
            }
        }
    }
    out
}

pub fn speed_independence(sg: &StateGraph) -> SpeedIndependenceReport {
    SpeedIndependenceReport {
        nondeterminism: nondeterminism_witnesses(sg),
        noncommutativity: commutativity_witnesses(sg),
        nonpersistency: persistency_witnesses(sg),
    }
}

pub fn analyze_csc(sg: &StateGraph) -> CscReport {
    let mut buckets: HashMap<u64, Vec<StateId>> = HashMap::new();
    for s in sg.state_ids() {
        buckets.entry(sg.code(s)).or_default().push(s);
    }
    let mut conflicts = Vec::new();
    for (&code, states) in &buckets {
        if states.len() < 2 {
            continue;
        }
        for (i, &a) in states.iter().enumerate() {
            let ea = enabled_noninput_edges(sg, a);
            for &b in &states[i + 1..] {
                let eb = enabled_noninput_edges(sg, b);
                conflicts.push(CodingConflict {
                    a: a.min(b),
                    b: a.max(b),
                    code,
                    csc: ea != eb,
                });
            }
        }
    }
    conflicts.sort_by_key(|c| (c.a, c.b));
    CscReport { conflicts }
}

/// If a diamond on `a`, `b` starts at `s1`, returns its four corners.
fn diamond_at(
    sg: &StateGraph,
    s1: StateId,
    a: SignalEdge,
    b: SignalEdge,
) -> Option<(StateId, StateId, StateId, StateId)> {
    let s2 = sg.step_edge(s1, a)?;
    let s3 = sg.step_edge(s1, b)?;
    let s4a = sg.step_edge(s2, b)?;
    let s4b = sg.step_edge(s3, a)?;
    (s4a == s4b).then_some((s1, s2, s3, s4a))
}

fn concurrent(sg: &StateGraph, a: SignalEdge, b: SignalEdge) -> bool {
    if a == b {
        return false;
    }
    sg.state_ids().any(|s| diamond_at(sg, s, a, b).is_some())
}

pub fn concurrent_pairs(sg: &StateGraph) -> Vec<(SignalEdge, SignalEdge)> {
    let mut edges: Vec<SignalEdge> = sg.events().iter().filter_map(|e| e.edge).collect();
    edges.sort_by_key(|e| (e.signal, e.polarity));
    edges.dedup();
    let mut out = Vec::new();
    for (i, &a) in edges.iter().enumerate() {
        for &b in &edges[i + 1..] {
            if concurrent(sg, a, b) {
                out.push((a, b));
            }
        }
    }
    out
}

pub fn implied_value(sg: &StateGraph, s: StateId, sig: SignalId) -> bool {
    let cur = sg.value(s, sig);
    let rise = SignalEdge {
        signal: sig,
        polarity: Polarity::Rise,
    };
    let fall = SignalEdge {
        signal: sig,
        polarity: Polarity::Fall,
    };
    if cur {
        // High: stays 1 unless a falling edge is excited.
        !enables_edge(sg, s, fall)
    } else {
        enables_edge(sg, s, rise)
    }
}

/// One signal's on, off and conflicting codes, each ascending, from
/// [`implied_value`] state by state.
pub fn next_state_table(sg: &StateGraph, sig: SignalId) -> [Vec<u64>; 3] {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for s in sg.state_ids() {
        let side = if implied_value(sg, s, sig) {
            &mut on
        } else {
            &mut off
        };
        side.push(sg.code(s));
    }
    for side in [&mut on, &mut off] {
        side.sort_unstable();
        side.dedup();
    }
    let both: Vec<u64> = on
        .iter()
        .filter(|c| off.binary_search(c).is_ok())
        .copied()
        .collect();
    on.retain(|c| both.binary_search(c).is_err());
    off.retain(|c| both.binary_search(c).is_err());
    [on, off, both]
}

pub fn check_against_sg(sg: &StateGraph, netlist: &Netlist) -> Vec<Mismatch> {
    let mut out = Vec::new();
    for s in sg.state_ids() {
        let code = sg.code(s);
        let next = netlist.next_code(code);
        for i in 0..sg.num_signals() {
            let sig = SignalId::from_index(i);
            if sg.signal(sig).kind == SignalKind::Input {
                continue;
            }
            if netlist.driver(sig).is_none() {
                continue;
            }
            let expected = implied_value(sg, s, sig);
            let got = (next >> i) & 1 == 1;
            if expected != got {
                out.push(Mismatch {
                    state: s,
                    signal: sg.signal(sig).name.clone(),
                    expected,
                    got,
                });
            }
        }
    }
    out
}

/// The gC set/reset pair of `signal`, or the violating signal's name
/// and its overlap count.
pub fn derive_gc_function(
    sg: &StateGraph,
    signal: SignalId,
) -> Result<GcFunction, (String, usize)> {
    let nv = sg.num_signals();
    let rise = SignalEdge {
        signal,
        polarity: Polarity::Rise,
    };
    let fall = SignalEdge {
        signal,
        polarity: Polarity::Fall,
    };
    let mut set_on = Vec::new();
    let mut set_off = Vec::new();
    let mut reset_on = Vec::new();
    let mut reset_off = Vec::new();
    for s in sg.state_ids() {
        let code = sg.code(s);
        if sg.value(s, signal) {
            if enables_edge(sg, s, fall) {
                reset_on.push(code);
            } else {
                reset_off.push(code);
            }
        } else if enables_edge(sg, s, rise) {
            set_on.push(code);
        } else {
            set_off.push(code);
        }
    }
    for (on, off) in [(&mut set_on, &mut set_off), (&mut reset_on, &mut reset_off)] {
        on.sort_unstable();
        off.sort_unstable();
        let overlap = on.iter().filter(|c| off.binary_search(c).is_ok()).count();
        if overlap > 0 {
            return Err((sg.signal(signal).name.clone(), overlap));
        }
    }
    let set_on = Cover::from_minterms(nv, &set_on);
    let set_dc = complement(&set_on.or(&Cover::from_minterms(nv, &set_off)));
    let reset_on = Cover::from_minterms(nv, &reset_on);
    let reset_dc = complement(&reset_on.or(&Cover::from_minterms(nv, &reset_off)));
    Ok(GcFunction {
        signal,
        set: minimize(&set_on, &set_dc),
        reset: minimize(&reset_on, &reset_dc),
    })
}
