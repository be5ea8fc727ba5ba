//! Signal Transition Graphs: Petri nets whose transitions are labelled
//! with rising/falling/toggling edges of circuit signals.
//!
//! An [`Stg`] owns a [`PetriNet`], a signal table, one label per
//! transition and the initial marking. Multiple transitions may carry
//! the same signal edge (distinguished by an *instance* number, printed
//! `a+/2` as in petrify's astg format). *Dummy* transitions carry a bare
//! name and no signal edge; they are used by intermediate representations
//! during handshake expansion.

use std::fmt;

use crate::error::{PetriError, Result};
use crate::ids::{PlaceId, SignalId, TransitionId};
use crate::marking::Marking;
use crate::net::PetriNet;

/// Interface role of a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalKind {
    /// Driven by the environment; the circuit must never delay it.
    Input,
    /// Driven by the circuit and observed by the environment.
    Output,
    /// Driven by the circuit, invisible to the environment (state signals).
    Internal,
}

impl SignalKind {
    /// True for signals the circuit must implement (output or internal).
    pub fn is_noninput(self) -> bool {
        !matches!(self, SignalKind::Input)
    }
}

/// Direction of a signal transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Polarity {
    /// `a+`: the signal rises from 0 to 1.
    Rise,
    /// `a-`: the signal falls from 1 to 0.
    Fall,
    /// `a~`: the signal toggles (2-phase signalling).
    Toggle,
}

impl Polarity {
    /// The suffix used in textual labels (`+`, `-`, `~`).
    pub fn suffix(self) -> &'static str {
        match self {
            Polarity::Rise => "+",
            Polarity::Fall => "-",
            Polarity::Toggle => "~",
        }
    }

    /// The opposite direction; toggles are their own opposite.
    pub fn opposite(self) -> Polarity {
        match self {
            Polarity::Rise => Polarity::Fall,
            Polarity::Fall => Polarity::Rise,
            Polarity::Toggle => Polarity::Toggle,
        }
    }
}

/// A signal edge: which signal, which direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalEdge {
    /// The signal that switches.
    pub signal: SignalId,
    /// The direction of the switch.
    pub polarity: Polarity,
}

/// Label attached to a transition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TransLabel {
    /// A signal edge, possibly one of several instances of it.
    Edge {
        /// The edge (signal + direction).
        edge: SignalEdge,
        /// Instance number; 1 is the first (printed without suffix).
        instance: u32,
    },
    /// A dummy event with a bare name (no signal semantics).
    Dummy {
        /// Display name of the dummy event.
        name: String,
    },
}

impl TransLabel {
    /// The signal edge, if this is not a dummy label.
    pub fn edge(&self) -> Option<SignalEdge> {
        match self {
            TransLabel::Edge { edge, .. } => Some(*edge),
            TransLabel::Dummy { .. } => None,
        }
    }
}

/// A named signal with its interface role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signal {
    /// Display name (as used in `.g` files).
    pub name: String,
    /// Interface role.
    pub kind: SignalKind,
}

/// A declared handshake channel of a *partial* specification: a req/ack
/// signal pair whose four-phase ordering is left open (the `.handshake`
/// directive). The channel's events appear as toggles (`req~`, `ack~`)
/// in the graph; handshake expansion turns them into the four-phase
/// protocol and enumerates the legal reshufflings of the
/// return-to-zero edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handshake {
    /// The request signal (fires first in every handshake cycle).
    pub req: SignalId,
    /// The acknowledge signal (answers the request).
    pub ack: SignalId,
}

/// A Signal Transition Graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stg {
    /// Short model name (from `.model`, or synthesized).
    pub name: String,
    net: PetriNet,
    signals: Vec<Signal>,
    labels: Vec<TransLabel>,
    initial: Marking,
    /// Declared handshake channels whose ordering is still open.
    handshakes: Vec<Handshake>,
}

impl Stg {
    /// Creates an empty STG with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        Stg {
            name: name.into(),
            net: PetriNet::new(),
            signals: Vec::new(),
            labels: Vec::new(),
            initial: Marking::empty(0),
            handshakes: Vec::new(),
        }
    }

    /// Declares a new signal.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::DuplicateName`] if the name is taken.
    pub fn add_signal(&mut self, name: impl Into<String>, kind: SignalKind) -> Result<SignalId> {
        let name = name.into();
        if self.signals.iter().any(|s| s.name == name) {
            return Err(PetriError::DuplicateName(name));
        }
        let id = SignalId::from_index(self.signals.len());
        self.signals.push(Signal { name, kind });
        Ok(id)
    }

    /// Number of declared signals.
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }

    /// The signal table entry for `s`.
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

    /// Iterates over all signal ids.
    pub fn signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        (0..self.signals.len()).map(SignalId::from_index)
    }

    /// Declares a handshake channel with open (reshufflable) ordering.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::Structural`] if `req == ack` or either
    /// signal already belongs to a declared channel.
    pub fn add_handshake(&mut self, req: SignalId, ack: SignalId) -> Result<()> {
        if req == ack {
            return Err(PetriError::Structural(format!(
                "handshake req and ack must differ (both are `{}`)",
                self.signals[req.index()].name
            )));
        }
        for h in &self.handshakes {
            for s in [h.req, h.ack] {
                if s == req || s == ack {
                    return Err(PetriError::Structural(format!(
                        "signal `{}` already belongs to a handshake channel",
                        self.signals[s.index()].name
                    )));
                }
            }
        }
        self.handshakes.push(Handshake { req, ack });
        Ok(())
    }

    /// The declared handshake channels whose ordering is still open.
    pub fn handshakes(&self) -> &[Handshake] {
        &self.handshakes
    }

    /// Removes a declared channel (after it has been expanded).
    pub fn remove_handshake(&mut self, index: usize) -> Handshake {
        self.handshakes.remove(index)
    }

    /// True if any transition carries a toggle (`a~`) label.
    pub fn has_toggle_transitions(&self) -> bool {
        self.labels
            .iter()
            .any(|l| matches!(l.edge().map(|e| e.polarity), Some(Polarity::Toggle)))
    }

    /// True if the specification is *partial* in the paper's sense:
    /// it declares unordered handshake channels and/or uses two-phase
    /// toggle events, so the ordering of the four-phase protocol edges
    /// is not yet committed. Partial specifications must go through
    /// handshake expansion before synthesis.
    pub fn is_partial(&self) -> bool {
        !self.handshakes.is_empty() || self.has_toggle_transitions()
    }

    /// Adds a transition labelled with a signal edge. The instance number
    /// is assigned automatically (1 + number of existing transitions with
    /// the same edge).
    pub fn add_edge_transition(&mut self, signal: SignalId, polarity: Polarity) -> TransitionId {
        let edge = SignalEdge { signal, polarity };
        let instance = 1 + self
            .labels
            .iter()
            .filter(|l| l.edge() == Some(edge))
            .count() as u32;
        let label = TransLabel::Edge { edge, instance };
        let name = self.render_label(&label);
        let t = self.net.add_transition(name);
        self.labels.push(label);
        t
    }

    /// Adds a dummy transition with a bare display name.
    pub fn add_dummy_transition(&mut self, name: impl Into<String>) -> TransitionId {
        let name = name.into();
        let t = self.net.add_transition(name.clone());
        self.labels.push(TransLabel::Dummy { name });
        t
    }

    /// Adds a transition with an explicit, pre-assigned label. Unlike
    /// [`Stg::add_edge_transition`] the instance number is taken
    /// verbatim, so structural rebuilds (e.g. [`crate::prereduce`]
    /// compaction) reproduce `a+/2` as `a+/2` regardless of insertion
    /// order. The caller is responsible for keeping labels unique.
    pub fn add_labelled_transition(&mut self, label: TransLabel) -> TransitionId {
        let name = self.render_label(&label);
        let t = self.net.add_transition(name);
        self.labels.push(label);
        t
    }

    /// Adds an unnamed place (named `p<N>`).
    pub fn add_place(&mut self) -> PlaceId {
        let n = self.net.num_places();
        self.net.add_place(format!("p{n}"))
    }

    /// Adds a named place.
    pub fn add_named_place(&mut self, name: impl Into<String>) -> PlaceId {
        self.net.add_place(name)
    }

    /// Adds a place connecting `from` to `to` (an *implicit place* in
    /// astg terms) and returns it.
    ///
    /// # Errors
    ///
    /// Propagates duplicate-arc errors from the underlying net.
    pub fn connect(&mut self, from: TransitionId, to: TransitionId) -> Result<PlaceId> {
        let name = format!(
            "<{},{}>",
            self.net.transition_name(from),
            self.net.transition_name(to)
        );
        let p = self.net.add_place(name);
        self.net.add_arc_tp(from, p)?;
        self.net.add_arc_pt(p, to)?;
        Ok(p)
    }

    /// Adds an arc from a place to a transition.
    ///
    /// # Errors
    ///
    /// Propagates duplicate-arc errors.
    pub fn arc_pt(&mut self, p: PlaceId, t: TransitionId) -> Result<()> {
        self.net.add_arc_pt(p, t)
    }

    /// Adds an arc from a transition to a place.
    ///
    /// # Errors
    ///
    /// Propagates duplicate-arc errors.
    pub fn arc_tp(&mut self, t: TransitionId, p: PlaceId) -> Result<()> {
        self.net.add_arc_tp(t, p)
    }

    /// Sets the initial marking from a set of places.
    pub fn set_initial_places(&mut self, places: &[PlaceId]) {
        self.initial = Marking::with_tokens(self.net.num_places(), places);
    }

    /// The initial marking, resized to the current number of places.
    pub fn initial_marking(&self) -> Marking {
        if self.initial.num_places() == self.net.num_places() {
            self.initial.clone()
        } else {
            let marked: Vec<PlaceId> = self.initial.iter().collect();
            Marking::with_tokens(self.net.num_places(), &marked)
        }
    }

    /// Read access to the underlying net.
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// Mutable access to the underlying net, for structural transforms.
    /// Callers must keep `labels` in sync when adding transitions — the
    /// methods on `Stg` do this automatically; prefer them.
    pub(crate) fn net_mut(&mut self) -> &mut PetriNet {
        &mut self.net
    }

    /// The label of transition `t`.
    pub fn label(&self, t: TransitionId) -> &TransLabel {
        &self.labels[t.index()]
    }

    /// The signal edge of transition `t` (`None` for dummies).
    pub fn edge_of(&self, t: TransitionId) -> Option<SignalEdge> {
        self.labels[t.index()].edge()
    }

    /// True if `t` is labelled with an edge of an input signal.
    pub fn is_input_transition(&self, t: TransitionId) -> bool {
        match self.edge_of(t) {
            Some(e) => self.signal(e.signal).kind == SignalKind::Input,
            None => false,
        }
    }

    /// All transitions labelled with edges of signal `s`.
    pub fn transitions_of_signal(&self, s: SignalId) -> Vec<TransitionId> {
        self.net
            .transitions()
            .filter(|&t| self.edge_of(t).map(|e| e.signal) == Some(s))
            .collect()
    }

    /// All transitions labelled with the given edge (all instances).
    pub fn transitions_of_edge(&self, edge: SignalEdge) -> Vec<TransitionId> {
        self.net
            .transitions()
            .filter(|&t| self.edge_of(t) == Some(edge))
            .collect()
    }

    /// Iterates over all transition ids.
    pub fn transitions(&self) -> impl Iterator<Item = TransitionId> + '_ {
        self.net.transitions()
    }

    /// Iterates over all place ids.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> + '_ {
        self.net.places()
    }

    /// Renders a label as text, e.g. `req+`, `ack-/2`, `dum1`.
    pub fn render_label(&self, label: &TransLabel) -> String {
        match label {
            TransLabel::Edge { edge, instance } => {
                let base = format!(
                    "{}{}",
                    self.signals[edge.signal.index()].name,
                    edge.polarity.suffix()
                );
                if *instance > 1 {
                    format!("{base}/{instance}")
                } else {
                    base
                }
            }
            TransLabel::Dummy { name } => name.clone(),
        }
    }

    /// Display name of transition `t` (kept in sync with its label).
    pub fn transition_name(&self, t: TransitionId) -> &str {
        self.net.transition_name(t)
    }

    /// Finds a transition by its rendered label (e.g. `"a+"`, `"a+/2"`).
    pub fn transition_by_label(&self, text: &str) -> Option<TransitionId> {
        self.net.transition_by_name(text)
    }

    /// Relabels a transition with a new signal edge; the instance number
    /// is reassigned automatically and the display name refreshed.
    pub fn relabel_transition(&mut self, t: TransitionId, signal: SignalId, polarity: Polarity) {
        let edge = SignalEdge { signal, polarity };
        let instance = 1 + self
            .labels
            .iter()
            .enumerate()
            .filter(|&(i, l)| i != t.index() && l.edge() == Some(edge))
            .count() as u32;
        let label = TransLabel::Edge { edge, instance };
        let name = self.render_label(&label);
        self.labels[t.index()] = label;
        self.net.set_transition_name(t, name);
        self.refresh_implicit_place_names(t);
    }

    /// Re-derives the conventional `<producer,consumer>` names of the
    /// implicit places adjacent to `t` after its display name changed,
    /// so `.marking` round-trips through [`crate::write_g`].
    fn refresh_implicit_place_names(&mut self, t: TransitionId) {
        let adjacent: Vec<PlaceId> = self
            .net
            .preset(t)
            .iter()
            .chain(self.net.postset(t))
            .copied()
            .collect();
        for p in adjacent {
            if !self.net.place_name(p).starts_with('<') {
                continue;
            }
            let (&[a], &[b]) = (self.net.producers(p), self.net.consumers(p)) else {
                continue;
            };
            let name = format!(
                "<{},{}>",
                self.net.transition_name(a),
                self.net.transition_name(b)
            );
            self.net.set_place_name(p, name);
        }
    }

    /// Basic sanity checks: marking sized to the net, every edge label
    /// references a declared signal.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::Structural`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        if self.labels.len() != self.net.num_transitions() {
            return Err(PetriError::Structural(format!(
                "{} labels for {} transitions",
                self.labels.len(),
                self.net.num_transitions()
            )));
        }
        for l in &self.labels {
            if let Some(e) = l.edge() {
                if e.signal.index() >= self.signals.len() {
                    return Err(PetriError::Structural(format!(
                        "label references undeclared signal {}",
                        e.signal
                    )));
                }
            }
        }
        self.net.check_no_source_transitions()?;
        Ok(())
    }
}

impl fmt::Display for Stg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Stg {} ({} signals, {} transitions, {} places)",
            self.name,
            self.signals.len(),
            self.net.num_transitions(),
            self.net.num_places()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The controller of Fig. 1(c): Req+ -> Ack+ -> {Req-, Ack-} cycle.
    pub(crate) fn fig1_stg() -> Stg {
        let mut g = Stg::new("fig1");
        let req = g.add_signal("Req", SignalKind::Input).unwrap();
        let ack = g.add_signal("Ack", SignalKind::Output).unwrap();
        let req_p = g.add_edge_transition(req, Polarity::Rise);
        let req_m = g.add_edge_transition(req, Polarity::Fall);
        let ack_p = g.add_edge_transition(ack, Polarity::Rise);
        let ack_m = g.add_edge_transition(ack, Polarity::Fall);
        // Arcs of Fig. 1(c): Ack+ -> Req-, Req- -> Req+, Req- -> Ack-,
        // Ack- -> Ack+, Req+ -> Ack+ (the `start` place), with the
        // initial marking enabling Ack+ (state 0*1 of Fig. 1(d)).
        g.connect(ack_p, req_m).unwrap();
        g.connect(req_m, req_p).unwrap();
        g.connect(req_m, ack_m).unwrap();
        g.connect(ack_m, ack_p).unwrap();
        let p_start = g.add_named_place("start");
        g.arc_pt(p_start, ack_p).unwrap();
        g.arc_tp(req_p, p_start).unwrap();
        let before_ackp = g.net().place_by_name("<Ack-,Ack+>").unwrap();
        g.set_initial_places(&[p_start, before_ackp]);
        g
    }

    #[test]
    fn signals_and_labels() {
        let g = fig1_stg();
        assert_eq!(g.num_signals(), 2);
        let req = g.signal_by_name("Req").unwrap();
        assert_eq!(g.signal(req).kind, SignalKind::Input);
        let t = g.transition_by_label("Req+").unwrap();
        assert!(g.is_input_transition(t));
        assert_eq!(
            g.edge_of(t),
            Some(SignalEdge {
                signal: req,
                polarity: Polarity::Rise
            })
        );
    }

    #[test]
    fn instances_number_automatically() {
        let mut g = Stg::new("t");
        let a = g.add_signal("a", SignalKind::Output).unwrap();
        let t1 = g.add_edge_transition(a, Polarity::Rise);
        let t2 = g.add_edge_transition(a, Polarity::Rise);
        assert_eq!(g.transition_name(t1), "a+");
        assert_eq!(g.transition_name(t2), "a+/2");
        assert_eq!(g.transitions_of_edge(g.edge_of(t1).unwrap()).len(), 2);
    }

    #[test]
    fn duplicate_signal_rejected() {
        let mut g = Stg::new("t");
        g.add_signal("a", SignalKind::Input).unwrap();
        assert!(g.add_signal("a", SignalKind::Output).is_err());
    }

    #[test]
    fn relabel_refreshes_name() {
        let mut g = Stg::new("t");
        let a = g.add_signal("a", SignalKind::Output).unwrap();
        let b = g.add_signal("b", SignalKind::Output).unwrap();
        let t = g.add_edge_transition(a, Polarity::Rise);
        g.relabel_transition(t, b, Polarity::Fall);
        assert_eq!(g.transition_name(t), "b-");
        assert_eq!(g.transitions_of_signal(a).len(), 0);
        assert_eq!(g.transitions_of_signal(b), vec![t]);
    }

    #[test]
    fn validate_accepts_wellformed() {
        let g = fig1_stg();
        g.validate().unwrap();
    }

    #[test]
    fn initial_marking_resizes() {
        let mut g = Stg::new("t");
        let a = g.add_signal("a", SignalKind::Output).unwrap();
        let t1 = g.add_edge_transition(a, Polarity::Rise);
        let t2 = g.add_edge_transition(a, Polarity::Fall);
        let p = g.connect(t1, t2).unwrap();
        g.set_initial_places(&[p]);
        // Adding more places afterwards must not invalidate the marking.
        let _q = g.connect(t2, t1).unwrap();
        let m = g.initial_marking();
        assert_eq!(m.num_places(), g.net().num_places());
        assert!(m.contains(p));
    }

    #[test]
    fn dummy_transitions() {
        let mut g = Stg::new("t");
        let d = g.add_dummy_transition("eps");
        assert_eq!(g.edge_of(d), None);
        assert!(!g.is_input_transition(d));
        assert_eq!(g.transition_name(d), "eps");
    }
}
