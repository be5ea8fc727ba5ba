//! Implementability properties of state graphs (Section 2 of the paper):
//! determinism, commutativity, output persistency — together
//! *speed independence* — plus deadlock freedom.
//!
//! Checks return structured *violation reports* rather than errors, so
//! callers can both assert properties in tests and display diagnostics.
//! Each reads a state's enabled edges from [`StateGraph::excitation`].
//! Witnesses come in state, then arc (event), then `(signal, polarity)`
//! order.

use reshuffle_petri::SignalEdge;

use crate::sg::{EventId, StateGraph, StateId};

/// A determinism violation: two arcs with the same edge label leave one
/// state towards different targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NondeterminismWitness {
    /// The branching state.
    pub state: StateId,
    /// The doubly-enabled edge.
    pub edge: SignalEdge,
    /// The two distinct successor states.
    pub targets: (StateId, StateId),
}

/// A commutativity violation: the two orders of firing a diamond of
/// events reach different states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommutativityWitness {
    /// The state where both events are enabled.
    pub state: StateId,
    /// The two event edges.
    pub edges: (SignalEdge, SignalEdge),
    /// States reached by `a;b` and by `b;a`.
    pub results: (StateId, StateId),
}

/// A persistency violation: `disabled` was enabled in `state` but not
/// after firing `by`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistencyWitness {
    /// The state where both events were enabled.
    pub state: StateId,
    /// The event that got disabled.
    pub disabled: SignalEdge,
    /// The event whose firing disabled it.
    pub by: SignalEdge,
}

/// Returns all determinism violations (empty = deterministic).
pub fn nondeterminism_witnesses(sg: &StateGraph) -> Vec<NondeterminismWitness> {
    let mut out = Vec::new();
    // Only a state in which two arcs carry one edge can branch on it.
    for s in sg.state_ids().filter(|&s| sg.excitation(s).repeated) {
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

/// Returns all commutativity violations (empty = commutative).
///
/// For every state with two distinct enabled edges `a`, `b` where both
/// interleavings exist, the final states must coincide. A step on an
/// edge follows the state's first arc, in event order, that carries it
/// (as [`StateGraph::step_edge`] does).
pub fn commutativity_witnesses(sg: &StateGraph) -> Vec<CommutativityWitness> {
    // The event of each edge at `3 * signal + polarity`: `NONE`, or
    // `REPEATED` when instances share it (`a+`, `a+/2`).
    const NONE: u32 = u32::MAX;
    const REPEATED: u32 = u32::MAX - 1;
    let slot = |e: SignalEdge| 3 * e.signal.index() + e.polarity as usize;
    let mut event_of = [NONE; 3 * 64];
    for (i, ev) in sg.events().iter().enumerate() {
        if let Some(edge) = ev.edge {
            let at = &mut event_of[slot(edge)];
            *at = if *at == NONE { i as u32 } else { REPEATED };
        }
    }
    let step = |s, edge| match event_of[slot(edge)] {
        REPEATED => sg.step_edge(s, edge),
        e => sg.step(s, EventId(e)),
    };
    let (mut out, mut steps) = (Vec::new(), Vec::new());
    for s in sg.state_ids() {
        steps.clear();
        steps.extend(
            sg.excitation(s)
                .edges()
                .filter_map(|a| Some((a, step(s, a)?))),
        );
        for (i, &(a, sa)) in steps.iter().enumerate() {
            for &(b, sb) in &steps[i + 1..] {
                let (Some(sab), Some(sba)) = (step(sa, b), step(sb, a)) else {
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

/// Returns all output-persistency violations (empty = output-persistent).
///
/// Per the paper: every *non-input* event must stay enabled until it
/// fires, and *input* events may only be disabled by other input events
/// (the environment's choice), never by the circuit's own events.
pub fn persistency_witnesses(sg: &StateGraph) -> Vec<PersistencyWitness> {
    let inputs = sg.input_signals();
    let is_input = |e: SignalEdge| inputs >> e.signal.index() & 1 == 1;
    let mut out = Vec::new();
    for s in sg.state_ids() {
        let enabled = sg.excitation(s);
        for (ev, t) in sg.succ(s) {
            let Some(fired) = sg.event(ev).edge else {
                continue;
            };
            for disabled in enabled.minus(&sg.excitation(t)).edges() {
                // Input events may disable input events.
                if disabled == fired || (is_input(fired) && is_input(disabled)) {
                    continue;
                }
                out.push(PersistencyWitness {
                    state: s,
                    disabled,
                    by: fired,
                });
            }
        }
    }
    out
}

/// Aggregate speed-independence report.
#[derive(Debug, Clone, Default)]
pub struct SpeedIndependenceReport {
    /// Determinism violations.
    pub nondeterminism: Vec<NondeterminismWitness>,
    /// Commutativity violations.
    pub noncommutativity: Vec<CommutativityWitness>,
    /// Persistency violations.
    pub nonpersistency: Vec<PersistencyWitness>,
}

impl SpeedIndependenceReport {
    /// True if no violations were found.
    pub fn is_speed_independent(&self) -> bool {
        self.nondeterminism.is_empty()
            && self.noncommutativity.is_empty()
            && self.nonpersistency.is_empty()
    }
}

/// Runs all three speed-independence checks.
pub fn speed_independence(sg: &StateGraph) -> SpeedIndependenceReport {
    SpeedIndependenceReport {
        nondeterminism: nondeterminism_witnesses(sg),
        noncommutativity: commutativity_witnesses(sg),
        nonpersistency: persistency_witnesses(sg),
    }
}

/// The admission gate of the searches over derived graphs (the
/// reshuffling lattice, concurrency reduction): no deadlock state,
/// every event labels an arc, and speed independent. One pass over the
/// arcs reads deadlock and liveness, before the SI check.
pub fn live_and_speed_independent(sg: &StateGraph) -> bool {
    let mut fired = vec![false; sg.num_events()];
    for s in sg.state_ids() {
        let arcs = sg.succ(s);
        if arcs.is_empty() {
            return false;
        }
        for &e in arcs.events() {
            fired[e.index()] = true;
        }
    }
    fired.into_iter().all(|b| b) && speed_independence(sg).is_speed_independent()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_state_graph;
    use reshuffle_petri::parse_g;

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
    fn fig1_is_speed_independent() {
        let sg = build_state_graph(&parse_g(FIG1).unwrap()).unwrap();
        let rep = speed_independence(&sg);
        assert!(rep.is_speed_independent(), "{rep:?}");
        assert!(live_and_speed_independent(&sg));
    }

    #[test]
    fn output_disabled_by_input_is_flagged() {
        // Free choice between input a+ and output b+: firing a+ disables
        // b+, which violates output persistency.
        let src = "\
.model race
.inputs a
.outputs b
.graph
p0 a+ b+
a+ a-
b+ b-
a- p0
b- p0
.marking { p0 }
.end
";
        let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
        let w = persistency_witnesses(&sg);
        assert!(!w.is_empty());
        assert!(!live_and_speed_independent(&sg));
        // Both directions are violations: a+ disables b+ (output killed)
        // and b+ disables a+ (input disabled by an output).
        assert!(w.len() >= 2, "{w:?}");
    }

    #[test]
    fn the_gate_rejects_a_deadlock_and_a_dead_event() {
        // a+ then b+, once: both fire, then nothing is enabled.
        let once = ".model once\n.inputs a\n.outputs b\n.graph\np0 a+\na+ b+\n\
                    .marking { p0 }\n.end\n";
        let sg = build_state_graph(&parse_g(once).unwrap()).unwrap();
        assert!(speed_independence(&sg).is_speed_independent());
        assert!(!sg.deadlock_states().is_empty());
        assert!(!live_and_speed_independent(&sg));
        // A live cycle beside an `x+` whose place is never marked.
        let dead = ".model dead\n.inputs a\n.outputs b x\n.graph\na+ b+\nb+ a-\n\
                    a- b-\nb- a+\np9 x+\nx+ p9\n.marking { <b-,a+> }\n.end\n";
        let sg = build_state_graph(&parse_g(dead).unwrap()).unwrap();
        assert!(speed_independence(&sg).is_speed_independent());
        assert!(sg.deadlock_states().is_empty());
        let x = sg.event_by_label("x+").unwrap();
        assert!(sg.state_ids().all(|s| !sg.succ(s).events().contains(&x)));
        assert!(!live_and_speed_independent(&sg));
    }

    #[test]
    fn input_choice_is_allowed() {
        // Free choice between two inputs is legal (environment decides).
        let src = "\
.model choice
.inputs a b
.graph
p0 a+ b+
a+ a-
b+ b-
a- p0
b- p0
.marking { p0 }
.end
";
        let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
        let w = persistency_witnesses(&sg);
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn concurrent_events_are_persistent() {
        let src = "\
.model conc
.inputs a
.outputs b
.graph
p0 a+
p1 b+
a+ a-
b+ b-
a- p0
b- p1
.marking { p0 p1 }
.end
";
        let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
        let rep = speed_independence(&sg);
        assert!(rep.is_speed_independent(), "{rep:?}");
    }
}
