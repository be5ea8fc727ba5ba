//! The state-graph data structure.
//!
//! A [`StateGraph`] is a finite automaton whose states carry binary
//! signal codes and whose arcs are labelled with *events*. An event is a
//! specific STG transition (so two instances `a+` and `a+/2` are two
//! events with the same [`SignalEdge`] label); most properties
//! (determinism, persistency, concurrency, excitation regions) are
//! defined at the *edge* level, merging instances, exactly as in the
//! paper. [`StateGraph::excitation`] is the one place that decides
//! which edges a state enables: three bit masks over signals (rising,
//! falling, toggling) that every per-state property reads.
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
//! # One numbering
//!
//! Every graph is numbered one way: breadth-first from state 0, each
//! state's arcs strictly ascending by event. That is the numbering a
//! full [`build_state_graph`](crate::build_state_graph) produces, and
//! the derivations in [`crate::restrict`] produce it too.
//! [`StateGraph::from_csr`], the one constructor, rejects any other.
//! So two graphs with the same name and tables are equal (`==`)
//! exactly when they are isomorphic, and a derived graph equals the
//! full build of its rewritten STG.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

use reshuffle_petri::{Polarity, Signal, SignalEdge, SignalId, SignalKind};

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

/// The signal edges one state enables ([`StateGraph::excitation`]): bit
/// `i` of `rise`, `fall` or `toggle` is set when an arc of the state
/// carries edge `+`, `-` or `~` of signal `i`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Excitation {
    /// Signals with an enabled `+` edge.
    pub rise: u64,
    /// Signals with an enabled `-` edge.
    pub fall: u64,
    /// Signals with an enabled `~` edge.
    pub toggle: u64,
    /// True if two arcs carry one edge (two instances, `a+` and `a+/2`).
    pub repeated: bool,
}

impl Excitation {
    /// Signals with some enabled edge.
    pub fn signals(&self) -> u64 {
        self.rise | self.fall | self.toggle
    }

    /// The edges enabled here and not in `other`.
    pub fn minus(&self, other: &Excitation) -> Excitation {
        Excitation {
            rise: self.rise & !other.rise,
            fall: self.fall & !other.fall,
            toggle: self.toggle & !other.toggle,
            repeated: false,
        }
    }

    /// The implied next value of every signal in a state with code
    /// `code`: 1 if high and not falling, or low and rising.
    pub fn implied(&self, code: u64) -> u64 {
        (code & !self.fall) | (!code & self.rise)
    }

    /// The enabled edges in `(signal, polarity)` order.
    pub fn edges(&self) -> impl Iterator<Item = SignalEdge> + Clone {
        let mut rest = *self;
        std::iter::from_fn(move || {
            let i = rest.signals().trailing_zeros();
            let bit = 1u64.checked_shl(i)?;
            let (mask, polarity) = if rest.rise & bit != 0 {
                (&mut rest.rise, Polarity::Rise)
            } else if rest.fall & bit != 0 {
                (&mut rest.fall, Polarity::Fall)
            } else {
                (&mut rest.toggle, Polarity::Toggle)
            };
            *mask &= !bit;
            let signal = SignalId::from_index(i as usize);
            Some(SignalEdge { signal, polarity })
        })
    }
}

/// A state graph with binary-encoded states in compressed (CSR)
/// storage and canonical numbering — see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
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
}

impl StateGraph {
    /// Assembles a graph from CSR arrays: `codes[s]` is the code of
    /// state `s`, and its arcs are `(arc_events[i], arc_targets[i])`
    /// for `i` in `succ_offsets[s]..succ_offsets[s + 1]`. This is the
    /// one constructor: builds, derivations and the cache decoder all
    /// write the flat layout directly.
    ///
    /// The numbering must be canonical (see the module docs): walking
    /// the states in order, each state's arcs strictly ascend by event,
    /// every state but 0 was reached by an arc of an earlier state, and
    /// every arc target is a state already reached or the next new id.
    ///
    /// # Errors
    ///
    /// [`SgError::TooManySignals`] past 64 signals, and
    /// [`SgError::Invalid`] on no states, malformed offsets, an event
    /// edge naming a signal past the signal table, an unknown arc
    /// event, a dangling arc target, or arcs or a numbering that are
    /// not canonical.
    pub fn from_csr(
        name: String,
        signals: Vec<Signal>,
        events: Vec<EventInfo>,
        codes: Vec<u64>,
        succ_offsets: Vec<u32>,
        arc_events: Vec<EventId>,
        arc_targets: Vec<StateId>,
    ) -> Result<Self> {
        if signals.len() > 64 {
            return Err(SgError::TooManySignals(signals.len()));
        }
        let n = codes.len();
        if n == 0 {
            return Err(SgError::Invalid("no states".into()));
        }
        if succ_offsets.len() != n + 1
            || succ_offsets[0] != 0
            || succ_offsets[n] as usize != arc_events.len()
            || arc_events.len() != arc_targets.len()
            || succ_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(SgError::Invalid("malformed CSR offsets".into()));
        }
        let invalid = |why: String| Err(SgError::Invalid(why));
        if let Some(ev) = events
            .iter()
            .find(|ev| ev.edge.is_some_and(|e| e.signal.index() >= signals.len()))
        {
            return invalid(format!("event {} names an unknown signal", ev.label));
        }
        // States `0..reached` have been reached from state 0.
        let mut reached = 1;
        for s in 0..n {
            if s >= reached {
                return invalid(format!("state {s} is not reached from an earlier state"));
            }
            let (lo, hi) = (succ_offsets[s] as usize, succ_offsets[s + 1] as usize);
            for i in lo..hi {
                let (e, t) = (arc_events[i], arc_targets[i] as usize);
                if e.index() >= events.len() {
                    return invalid(format!("state {s}: unknown event {e:?}"));
                }
                if i > lo && arc_events[i - 1] >= e {
                    return invalid(format!("state {s}: arcs not ascending by event"));
                }
                if t >= n {
                    return invalid(format!("state {s}: dangling arc to {t}"));
                }
                if t > reached {
                    return invalid(format!("state {s}: arc to {t} is not breadth-first"));
                }
                reached += usize::from(t == reached);
            }
        }
        Ok(StateGraph {
            name,
            signals,
            events,
            codes,
            succ_offsets,
            arc_events,
            arc_targets,
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

    /// The initial state: always 0, the root of the numbering.
    pub fn initial(&self) -> StateId {
        0
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

    /// The successor of `s` under event `e`, if any (a binary search:
    /// a state's arcs ascend by event).
    pub fn step(&self, s: StateId, e: EventId) -> Option<StateId> {
        let arcs = self.succ(s);
        arcs.events.binary_search(&e).ok().map(|i| arcs.targets[i])
    }

    /// The successor of `s` under any event with the given edge label.
    pub fn step_edge(&self, s: StateId, edge: SignalEdge) -> Option<StateId> {
        let arcs = self.succ(s);
        arcs.events
            .iter()
            .position(|&ev| self.events[ev.index()].edge == Some(edge))
            .map(|i| arcs.targets[i])
    }

    /// The signal edges that state `s` enables, dummies left out: the
    /// one place that decides it for every per-state property.
    pub fn excitation(&self, s: StateId) -> Excitation {
        let (mut x, mut arcs) = (Excitation::default(), 0);
        for &e in self.succ(s).events {
            if let Some(edge) = self.events[e.index()].edge {
                let bit = 1 << edge.signal.index();
                match edge.polarity {
                    Polarity::Rise => x.rise |= bit,
                    Polarity::Fall => x.fall |= bit,
                    Polarity::Toggle => x.toggle |= bit,
                }
                arcs += 1;
            }
        }
        // Fewer distinct edges than arcs carrying one: some edge repeats.
        x.repeated = arcs > x.rise.count_ones() + x.fall.count_ones() + x.toggle.count_ones();
        x
    }

    /// The input signals, one bit per signal.
    pub fn input_signals(&self) -> u64 {
        (0..self.signals.len())
            .filter(|&i| self.signals[i].kind == SignalKind::Input)
            .fold(0, |mask, i| mask | 1 << i)
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

    /// A 64-bit fingerprint of the graph: a hash of the table sizes
    /// and of each state's code and arcs, in state order. The numbering
    /// is canonical, so isomorphic graphs over the same event table
    /// hash equal.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.signals.len().hash(&mut h);
        self.events.len().hash(&mut h);
        for s in self.state_ids() {
            self.codes[s as usize].hash(&mut h);
            for (e, t) in self.succ(s) {
                e.0.hash(&mut h);
                t.hash(&mut h);
            }
        }
        h.finish()
    }

    /// Renders the code of state `s` with one char per signal, `*`-marked
    /// for enabled signals, in signal order — like Fig. 1(d): `1*0*`.
    pub fn render_state(&self, s: StateId) -> String {
        let (code, excited) = (self.code(s), self.excitation(s).signals());
        let mut out = String::new();
        for sig in 0..self.signals.len() {
            out.push(if code >> sig & 1 == 1 { '1' } else { '0' });
            if excited >> sig & 1 == 1 {
                out.push('*');
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sig(name: &str, kind: SignalKind) -> Signal {
        Signal {
            name: name.into(),
            kind,
        }
    }

    /// A graph from per-state `(code, arcs)` lists, through
    /// [`StateGraph::from_csr`].
    pub(crate) fn from_lists(
        name: &str,
        signals: Vec<Signal>,
        events: Vec<EventInfo>,
        states: Vec<(u64, Vec<(EventId, StateId)>)>,
    ) -> Result<StateGraph> {
        let mut succ_offsets = vec![0];
        let (mut arc_events, mut arc_targets) = (Vec::new(), Vec::new());
        for (_, succ) in &states {
            arc_events.extend(succ.iter().map(|&(e, _)| e));
            arc_targets.extend(succ.iter().map(|&(_, t)| t));
            succ_offsets.push(arc_events.len() as u32);
        }
        let codes = states.iter().map(|&(code, _)| code).collect();
        StateGraph::from_csr(
            name.into(),
            signals,
            events,
            codes,
            succ_offsets,
            arc_events,
            arc_targets,
        )
    }

    /// Hand-built 4-state diamond: a+ and b+ concurrent from 00.
    pub(crate) fn diamond() -> StateGraph {
        diamond_with(vec![
            (0b00, vec![(EventId(0), 1), (EventId(1), 2)]),
            (0b01, vec![(EventId(1), 3)]),
            (0b10, vec![(EventId(0), 3)]),
            (0b11, vec![]),
        ])
        .unwrap()
    }

    /// The diamond's signals (`a` input, `b` output) and events (`a+`,
    /// `b+`) over the given states.
    fn diamond_with(states: Vec<(u64, Vec<(EventId, StateId)>)>) -> Result<StateGraph> {
        let signals = vec![sig("a", SignalKind::Input), sig("b", SignalKind::Output)];
        let events = ["a+", "b+"]
            .iter()
            .enumerate()
            .map(|(i, label)| EventInfo {
                label: label.to_string(),
                edge: Some(SignalEdge {
                    signal: SignalId::from_index(i),
                    polarity: Polarity::Rise,
                }),
            })
            .collect();
        from_lists("diamond", signals, events, states)
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
    fn renumbered_diamond_is_rejected() {
        // The diamond with states 1 and 2 swapped: isomorphic, but
        // state 0's arcs reach 2 before 1, which no breadth-first
        // numbering does.
        let swapped = diamond_with(vec![
            (0b00, vec![(EventId(0), 2), (EventId(1), 1)]),
            (0b10, vec![(EventId(0), 3)]),
            (0b01, vec![(EventId(1), 3)]),
            (0b11, vec![]),
        ]);
        assert!(matches!(swapped, Err(SgError::Invalid(_))), "{swapped:?}");
    }

    #[test]
    fn fingerprint_differs_on_arc_removal() {
        let g1 = diamond();
        // The diamond without the arc 1 -b+-> 3: state 3 is still
        // reached, through state 2.
        let g2 = diamond_with(vec![
            (0b00, vec![(EventId(0), 1), (EventId(1), 2)]),
            (0b01, vec![]),
            (0b10, vec![(EventId(0), 3)]),
            (0b11, vec![]),
        ])
        .unwrap();
        assert_ne!(g1.fingerprint(), g2.fingerprint());
        assert_ne!(g1, g2);
        assert_eq!(g1, diamond());
    }

    #[test]
    fn excitation_masks_the_enabled_edges() {
        let g = diamond();
        let x = g.excitation(0);
        assert_eq!((x.rise, x.fall, x.toggle, x.repeated), (0b11, 0, 0, false));
        assert_eq!(g.excitation(1).rise, 0b10);
        assert_eq!(g.excitation(3), Excitation::default());
        let edge = |i, polarity| SignalEdge {
            signal: SignalId::from_index(i),
            polarity,
        };
        // Edges come in (signal, polarity) order.
        let x = Excitation {
            rise: 0b101,
            fall: 0b100,
            toggle: 0b010,
            repeated: false,
        };
        let want = [
            edge(0, Polarity::Rise),
            edge(1, Polarity::Toggle),
            edge(2, Polarity::Rise),
            edge(2, Polarity::Fall),
        ];
        assert!(x.edges().eq(want));
        assert_eq!(x.minus(&g.excitation(0)).rise, 0b100);
        // Rising excites a low signal, falling a high one.
        assert_eq!(x.implied(0b110), 0b011);
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
        // Per-state lists whose only arc names an event the graph lacks.
        let signals = vec![sig("a", SignalKind::Input)];
        let bad = from_lists("x", signals, vec![], vec![(0, vec![(EventId(0), 0)])]);
        assert!(matches!(bad, Err(SgError::Invalid(_))), "{bad:?}");
    }

    #[test]
    fn rejects_bad_csr() {
        let (a, b) = (EventId(0), EventId(1));
        let cases = [
            ("no states", diamond_with(vec![])),
            (
                "unknown event",
                diamond_with(vec![(0, vec![(EventId(2), 0)])]),
            ),
            ("dangling arc", diamond_with(vec![(0, vec![(a, 1)])])),
            (
                "arcs not ascending",
                diamond_with(vec![(0, vec![(b, 1), (a, 2)]), (2, vec![]), (1, vec![])]),
            ),
            (
                "one event twice",
                diamond_with(vec![(0, vec![(a, 1), (a, 1)]), (1, vec![])]),
            ),
            (
                "arc skips the next id",
                diamond_with(vec![(0, vec![(a, 2)]), (3, vec![]), (1, vec![(b, 1)])]),
            ),
            (
                "unreached state",
                diamond_with(vec![(0, vec![(b, 0)]), (1, vec![])]),
            ),
        ];
        for (what, got) in cases {
            assert!(matches!(got, Err(SgError::Invalid(_))), "{what}: {got:?}");
        }

        let g = diamond();
        // Offsets that claim 2 arcs while the arrays hold none.
        let bad = StateGraph::from_csr(
            "x".into(),
            g.signals().to_vec(),
            vec![],
            vec![0],
            vec![0, 2],
            vec![],
            vec![],
        );
        assert!(matches!(bad, Err(SgError::Invalid(_))), "{bad:?}");
        // An event edge naming signal 200 of 2.
        let mut events = g.events().to_vec();
        events[1].edge = Some(SignalEdge {
            signal: SignalId(200),
            polarity: Polarity::Rise,
        });
        let bad = from_lists("x", g.signals().to_vec(), events, vec![(0, vec![])]);
        assert!(matches!(bad, Err(SgError::Invalid(_))), "{bad:?}");
    }
}
