//! The state-graph data structure.
//!
//! A [`StateGraph`] is a finite automaton whose states carry binary
//! signal codes and whose arcs are labelled with *events*. An event is a
//! specific STG transition (so two instances `a+` and `a+/2` are two
//! events with the same [`SignalEdge`] label); most properties
//! (determinism, persistency, concurrency, excitation regions) are
//! defined at the *edge* level, merging instances, exactly as in the
//! paper.
//!
//! # Storage layout
//!
//! The graph is stored in a compressed struct-of-arrays (CSR) form:
//! one flat `codes` array and flat `arc_events`/`arc_targets` arrays
//! indexed through a `succ_offsets` prefix array. There is no per-state
//! heap allocation, so a graph with hundreds of thousands of states is
//! four large allocations — trivially serializable and cheap to clone.
//! Analyses read it through the [`StateGraph::succ`] slice accessor
//! ([`Arcs`]), which iterates `(event, target)` pairs.
//!
//! A graph keeps codes and arcs only. Markings matter while the STG is
//! explored ([`crate::build_state_graph`]); CSC, speed independence and
//! the next-state functions are all defined on codes, so no marking
//! outlives the build.
//!
//! State graphs are immutable once built; transformations (concurrency
//! reduction) construct new graphs via [`StateGraph::from_parts`], the
//! validating constructor that compacts per-state lists into CSR.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};

use reshuffle_petri::{Signal, SignalEdge, SignalId, SignalKind};

use crate::error::{Result, SgError};

/// Index of a state within a [`StateGraph`].
pub type StateId = u32;

/// Index of an event (an STG transition) within a [`StateGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u32);

impl EventId {
    /// Dense index of the event.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Static information about an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventInfo {
    /// Rendered label, e.g. `ack+/2` or a dummy name.
    pub label: String,
    /// The signal edge, if not a dummy.
    pub edge: Option<SignalEdge>,
}

/// One state as handed to [`StateGraph::from_parts`]: binary code plus
/// outgoing arcs. This is a *construction* type — the assembled graph
/// compacts these into the flat CSR arrays and does not keep per-state
/// `State` values around.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct State {
    /// Binary code: bit *i* is the value of signal *i*.
    pub code: u64,
    /// Outgoing arcs `(event, successor)`; sorted and deduplicated by
    /// the constructor.
    pub succ: Vec<(EventId, StateId)>,
}

/// The outgoing arcs of one state: a zero-copy view over the graph's
/// flat arc arrays, iterating `(event, target)` pairs in event order.
#[derive(Clone, Copy)]
pub struct Arcs<'a> {
    events: &'a [EventId],
    targets: &'a [StateId],
}

/// Iterator type of [`Arcs`].
pub type ArcsIter<'a> = std::iter::Zip<
    std::iter::Copied<std::slice::Iter<'a, EventId>>,
    std::iter::Copied<std::slice::Iter<'a, StateId>>,
>;

impl<'a> Arcs<'a> {
    /// Number of arcs.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the state has no outgoing arcs.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The `i`-th arc as an `(event, target)` pair.
    pub fn get(&self, i: usize) -> (EventId, StateId) {
        (self.events[i], self.targets[i])
    }

    /// Iterates `(event, target)` pairs.
    pub fn iter(&self) -> ArcsIter<'a> {
        self.events
            .iter()
            .copied()
            .zip(self.targets.iter().copied())
    }

    /// The arc events alone, as a slice.
    pub fn events(&self) -> &'a [EventId] {
        self.events
    }

    /// The arc targets alone, as a slice.
    pub fn targets(&self) -> &'a [StateId] {
        self.targets
    }
}

impl<'a> IntoIterator for Arcs<'a> {
    type Item = (EventId, StateId);
    type IntoIter = ArcsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Arcs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A state graph with binary-encoded states in compressed (CSR)
/// storage — see the module docs for the layout.
#[derive(Debug, Clone)]
pub struct StateGraph {
    name: String,
    signals: Vec<Signal>,
    events: Vec<EventInfo>,
    /// Binary code per state.
    codes: Vec<u64>,
    /// Prefix offsets into the arc arrays; `len() == num_states + 1`.
    succ_offsets: Vec<u32>,
    /// Arc events, grouped by source state, sorted by event id within
    /// each group.
    arc_events: Vec<EventId>,
    /// Arc targets, parallel to `arc_events`.
    arc_targets: Vec<StateId>,
    initial: StateId,
}

impl StateGraph {
    /// Assembles a state graph from raw parts, validating arc targets,
    /// sorting successor lists and rejecting empty graphs. The
    /// per-state lists are compacted into the flat CSR arrays.
    ///
    /// # Errors
    ///
    /// Returns [`SgError::Invalid`] on dangling arc targets, an
    /// out-of-range initial state, or more than 64 signals.
    pub fn from_parts(
        name: impl Into<String>,
        signals: Vec<Signal>,
        events: Vec<EventInfo>,
        mut states: Vec<State>,
        initial: StateId,
    ) -> Result<Self> {
        if signals.len() > 64 {
            return Err(SgError::TooManySignals(signals.len()));
        }
        if states.is_empty() {
            return Err(SgError::Invalid("no states".into()));
        }
        if initial as usize >= states.len() {
            return Err(SgError::Invalid(format!(
                "initial state {initial} out of range ({} states)",
                states.len()
            )));
        }
        let num_states = states.len();
        for (i, st) in states.iter_mut().enumerate() {
            for &(e, tgt) in &st.succ {
                if e.index() >= events.len() {
                    return Err(SgError::Invalid(format!("state {i}: unknown event {e:?}")));
                }
                if tgt as usize >= num_states {
                    return Err(SgError::Invalid(format!(
                        "state {i}: dangling arc to {tgt}"
                    )));
                }
            }
            st.succ.sort_unstable();
            st.succ.dedup();
        }

        // Compact into CSR.
        let num_arcs: usize = states.iter().map(|s| s.succ.len()).sum();
        let mut codes = Vec::with_capacity(num_states);
        let mut succ_offsets = Vec::with_capacity(num_states + 1);
        let mut arc_events = Vec::with_capacity(num_arcs);
        let mut arc_targets = Vec::with_capacity(num_arcs);
        succ_offsets.push(0);
        for st in states {
            codes.push(st.code);
            for (e, t) in st.succ {
                arc_events.push(e);
                arc_targets.push(t);
            }
            succ_offsets.push(arc_events.len() as u32);
        }
        Ok(StateGraph {
            name: name.into(),
            signals,
            events,
            codes,
            succ_offsets,
            arc_events,
            arc_targets,
            initial,
        })
    }

    /// Assembles a graph directly from CSR arrays — the zero-copy path
    /// used by the builder, which produces the flat layout natively. Validates the same invariants as
    /// [`StateGraph::from_parts`] plus offset monotonicity; arc groups
    /// must already be sorted by event id.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_csr(
        name: String,
        signals: Vec<Signal>,
        events: Vec<EventInfo>,
        codes: Vec<u64>,
        succ_offsets: Vec<u32>,
        arc_events: Vec<EventId>,
        arc_targets: Vec<StateId>,
        initial: StateId,
    ) -> Result<Self> {
        if signals.len() > 64 {
            return Err(SgError::TooManySignals(signals.len()));
        }
        let n = codes.len();
        if n == 0 {
            return Err(SgError::Invalid("no states".into()));
        }
        if initial as usize >= n {
            return Err(SgError::Invalid(format!(
                "initial state {initial} out of range ({n} states)"
            )));
        }
        if succ_offsets.len() != n + 1
            || succ_offsets[0] != 0
            || succ_offsets[n] as usize != arc_events.len()
            || arc_events.len() != arc_targets.len()
            || succ_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(SgError::Invalid("malformed CSR offsets".into()));
        }
        if arc_events.iter().any(|e| e.index() >= events.len()) {
            return Err(SgError::Invalid("unknown arc event".into()));
        }
        if arc_targets.iter().any(|&t| t as usize >= n) {
            return Err(SgError::Invalid("dangling arc target".into()));
        }
        Ok(StateGraph {
            name,
            signals,
            events,
            codes,
            succ_offsets,
            arc_events,
            arc_targets,
            initial,
        })
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.codes.len()
    }

    /// Number of events.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Number of signals.
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }

    /// The signal table.
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// The signal with the given id.
    pub fn signal(&self, s: SignalId) -> &Signal {
        &self.signals[s.index()]
    }

    /// Looks up a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(SignalId::from_index)
    }

    /// The event table.
    pub fn events(&self) -> &[EventInfo] {
        &self.events
    }

    /// Information about one event.
    pub fn event(&self, e: EventId) -> &EventInfo {
        &self.events[e.index()]
    }

    /// Looks up an event by its rendered label.
    pub fn event_by_label(&self, label: &str) -> Option<EventId> {
        self.events
            .iter()
            .position(|ev| ev.label == label)
            .map(|i| EventId(i as u32))
    }

    /// True if the event is an edge of an input signal.
    pub fn is_input_event(&self, e: EventId) -> bool {
        match self.events[e.index()].edge {
            Some(edge) => self.signals[edge.signal.index()].kind == SignalKind::Input,
            None => false,
        }
    }

    /// True if the event is an edge of an output or internal signal.
    pub fn is_noninput_event(&self, e: EventId) -> bool {
        match self.events[e.index()].edge {
            Some(edge) => self.signals[edge.signal.index()].kind.is_noninput(),
            None => false,
        }
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Iterates over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        0..self.codes.len() as StateId
    }

    /// The binary code of state `s`.
    pub fn code(&self, s: StateId) -> u64 {
        self.codes[s as usize]
    }

    /// All binary codes, indexed by state id.
    pub fn codes(&self) -> &[u64] {
        &self.codes
    }

    /// The value of signal `sig` in state `s`.
    pub fn value(&self, s: StateId, sig: SignalId) -> bool {
        (self.codes[s as usize] >> sig.index()) & 1 == 1
    }

    /// Outgoing arcs of state `s`, as a zero-copy `(event, target)`
    /// view into the flat arc arrays.
    pub fn succ(&self, s: StateId) -> Arcs<'_> {
        let lo = self.succ_offsets[s as usize] as usize;
        let hi = self.succ_offsets[s as usize + 1] as usize;
        Arcs {
            events: &self.arc_events[lo..hi],
            targets: &self.arc_targets[lo..hi],
        }
    }

    /// The successor of `s` under event `e`, if any.
    pub fn step(&self, s: StateId, e: EventId) -> Option<StateId> {
        let arcs = self.succ(s);
        arcs.events
            .iter()
            .position(|&ev| ev == e)
            .map(|i| arcs.targets[i])
    }

    /// The successor of `s` under any event with the given edge label.
    pub fn step_edge(&self, s: StateId, edge: SignalEdge) -> Option<StateId> {
        let arcs = self.succ(s);
        arcs.events
            .iter()
            .position(|&ev| self.events[ev.index()].edge == Some(edge))
            .map(|i| arcs.targets[i])
    }

    /// True if some event with the given edge is enabled in `s`.
    pub fn enables_edge(&self, s: StateId, edge: SignalEdge) -> bool {
        self.succ(s)
            .events
            .iter()
            .any(|&ev| self.events[ev.index()].edge == Some(edge))
    }

    /// The distinct signal edges enabled in `s`.
    pub fn enabled_edges(&self, s: StateId) -> Vec<SignalEdge> {
        let mut edges: Vec<SignalEdge> = self
            .succ(s)
            .events
            .iter()
            .filter_map(|&ev| self.events[ev.index()].edge)
            .collect();
        edges.sort_by_key(|e| (e.signal, e.polarity));
        edges.dedup();
        edges
    }

    /// The distinct *non-input* signal edges enabled in `s` (the set CSC
    /// compares between equally-coded states).
    pub fn enabled_noninput_edges(&self, s: StateId) -> Vec<SignalEdge> {
        self.enabled_edges(s)
            .into_iter()
            .filter(|e| self.signals[e.signal.index()].kind.is_noninput())
            .collect()
    }

    /// Total number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.arc_events.len()
    }

    /// States with no outgoing arcs.
    pub fn deadlock_states(&self) -> Vec<StateId> {
        self.state_ids()
            .filter(|&s| self.succ(s).is_empty())
            .collect()
    }

    /// A canonical 64-bit fingerprint of the graph: BFS-renumber states
    /// from the initial state visiting arcs in event order (the graph is
    /// deterministic per event id), then hash codes and renumbered arcs.
    /// Isomorphic graphs over the same event table hash equal.
    pub fn fingerprint(&self) -> u64 {
        let order = self.bfs_order();
        let mut renum = vec![u32::MAX; self.num_states()];
        for (i, &s) in order.iter().enumerate() {
            renum[s as usize] = i as u32;
        }
        let mut h = DefaultHasher::new();
        self.signals.len().hash(&mut h);
        self.events.len().hash(&mut h);
        for &s in &order {
            self.codes[s as usize].hash(&mut h);
            for (e, t) in self.succ(s) {
                e.0.hash(&mut h);
                renum[t as usize].hash(&mut h);
            }
        }
        h.finish()
    }

    /// BFS order of states reachable from the initial state (arcs in
    /// event order). States unreachable from the initial state are
    /// appended in id order (a well-formed graph has none).
    pub fn bfs_order(&self) -> Vec<StateId> {
        let mut seen = vec![false; self.num_states()];
        let mut order = Vec::with_capacity(self.num_states());
        let mut q = VecDeque::new();
        q.push_back(self.initial);
        seen[self.initial as usize] = true;
        while let Some(s) = q.pop_front() {
            order.push(s);
            for &t in self.succ(s).targets() {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    q.push_back(t);
                }
            }
        }
        for s in self.state_ids() {
            if !seen[s as usize] {
                order.push(s);
            }
        }
        order
    }

    /// Renders the code of state `s` with one char per signal, `*`-marked
    /// for enabled signals, in signal order — like Fig. 1(d): `1*0*`.
    pub fn render_state(&self, s: StateId) -> String {
        let mut out = String::new();
        let enabled = self.enabled_edges(s);
        for sig in 0..self.signals.len() {
            let sig_id = SignalId::from_index(sig);
            let v = if self.value(s, sig_id) { '1' } else { '0' };
            out.push(v);
            if enabled.iter().any(|e| e.signal == sig_id) {
                out.push('*');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshuffle_petri::Polarity;

    fn sig(name: &str, kind: SignalKind) -> Signal {
        Signal {
            name: name.into(),
            kind,
        }
    }

    /// Hand-built 4-state diamond: a+ and b+ concurrent from 00.
    pub(crate) fn diamond() -> StateGraph {
        let signals = vec![sig("a", SignalKind::Input), sig("b", SignalKind::Output)];
        let ea = SignalEdge {
            signal: SignalId(0),
            polarity: Polarity::Rise,
        };
        let eb = SignalEdge {
            signal: SignalId(1),
            polarity: Polarity::Rise,
        };
        let events = vec![
            EventInfo {
                label: "a+".into(),
                edge: Some(ea),
            },
            EventInfo {
                label: "b+".into(),
                edge: Some(eb),
            },
        ];
        let states = vec![
            State {
                code: 0b00,
                succ: vec![(EventId(0), 1), (EventId(1), 2)],
            },
            State {
                code: 0b01,
                succ: vec![(EventId(1), 3)],
            },
            State {
                code: 0b10,
                succ: vec![(EventId(0), 3)],
            },
            State {
                code: 0b11,
                succ: vec![],
            },
        ];
        StateGraph::from_parts("diamond", signals, events, states, 0).unwrap()
    }

    #[test]
    fn basic_queries() {
        let g = diamond();
        assert_eq!(g.num_states(), 4);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.code(3), 0b11);
        assert!(g.value(3, SignalId(0)));
        assert_eq!(g.step(0, EventId(0)), Some(1));
        assert_eq!(g.step(1, EventId(0)), None);
        assert!(g.is_input_event(EventId(0)));
        assert!(g.is_noninput_event(EventId(1)));
        assert_eq!(g.deadlock_states(), vec![3]);
        assert_eq!(g.event_by_label("b+"), Some(EventId(1)));
    }

    #[test]
    fn arcs_view_matches_construction_lists() {
        let g = diamond();
        let arcs = g.succ(0);
        assert_eq!(arcs.len(), 2);
        assert!(!arcs.is_empty());
        assert_eq!(arcs.get(0), (EventId(0), 1));
        assert_eq!(arcs.get(1), (EventId(1), 2));
        assert_eq!(arcs.events(), &[EventId(0), EventId(1)]);
        assert_eq!(arcs.targets(), &[1, 2]);
        let collected: Vec<_> = g.succ(0).iter().collect();
        assert_eq!(collected, vec![(EventId(0), 1), (EventId(1), 2)]);
        assert!(g.succ(3).is_empty());
        assert!(!format!("{:?}", g.succ(0)).is_empty());
    }

    #[test]
    fn fingerprint_stable_under_renumbering() {
        let g1 = diamond();
        // Same graph with states 1 and 2 swapped.
        let signals = g1.signals().to_vec();
        let events = g1.events().to_vec();
        let states = vec![
            State {
                code: 0b00,
                succ: vec![(EventId(0), 2), (EventId(1), 1)],
            },
            State {
                code: 0b10,
                succ: vec![(EventId(0), 3)],
            },
            State {
                code: 0b01,
                succ: vec![(EventId(1), 3)],
            },
            State {
                code: 0b11,
                succ: vec![],
            },
        ];
        let g2 = StateGraph::from_parts("diamond", signals, events, states, 0).unwrap();
        assert_eq!(g1.fingerprint(), g2.fingerprint());
    }

    #[test]
    fn fingerprint_differs_on_arc_removal() {
        let g1 = diamond();
        // The diamond without the arc 0 -b+-> 2.
        let states = g1
            .state_ids()
            .map(|s| State {
                code: g1.code(s),
                succ: g1
                    .succ(s)
                    .iter()
                    .filter(|&(e, _)| !(s == 0 && e == EventId(1)))
                    .collect(),
            })
            .collect();
        let g2 = StateGraph::from_parts(
            "diamond",
            g1.signals().to_vec(),
            g1.events().to_vec(),
            states,
            0,
        )
        .unwrap();
        // Dropping state 2's incoming arc leaves it unreachable but kept;
        // fingerprints must differ.
        assert_ne!(g1.fingerprint(), g2.fingerprint());
    }

    #[test]
    fn render_state_marks_excited() {
        let g = diamond();
        assert_eq!(g.render_state(0), "0*0*");
        assert_eq!(g.render_state(1), "10*");
        assert_eq!(g.render_state(3), "11");
    }

    #[test]
    fn rejects_bad_parts() {
        let signals = vec![sig("a", SignalKind::Input)];
        let events = vec![];
        let states = vec![State {
            code: 0,
            succ: vec![(EventId(0), 0)],
        }];
        assert!(StateGraph::from_parts("x", signals, events, states, 0).is_err());
    }

    #[test]
    fn rejects_bad_csr() {
        let signals = vec![sig("a", SignalKind::Input)];
        let bad = StateGraph::from_csr(
            "x".into(),
            signals,
            vec![],
            vec![0],
            vec![0, 2], // offsets claim 2 arcs, arrays hold none
            vec![],
            vec![],
            0,
        );
        assert!(matches!(bad, Err(SgError::Invalid(_))));
    }
}
