//! Gate-level netlists for speed-independent controllers.
//!
//! A [`Netlist`] drives each non-input signal with a DAG of library
//! gates over *signal values* (inputs and fed-back outputs). Sequential
//! behaviour comes from C-elements and from generalized-C latches
//! ([`Node::GcLatch`]), or implicitly from combinational feedback
//! (a complex gate whose function depends on its own output).
//!
//! The node table is in topological order: every gate or latch input
//! is an earlier node ([`Netlist::add`] asserts it). So
//! [`Netlist::next_code`] evaluates a state in one forward pass over
//! the table, the order a bit-sliced evaluation of 64 states per word
//! would also take.

use std::fmt;

use reshuffle_petri::{Signal, SignalId, SignalKind};

use crate::error::{Result, SynthError};
use crate::library::{GateType, Library};

/// Index of a node within a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

/// One netlist node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// The current value of a signal (circuit input or feedback).
    SignalRef(SignalId),
    /// Constant 0 or 1.
    Const(bool),
    /// A library gate over other nodes.
    Gate(GateType, Vec<NodeId>),
    /// A generalized-C latch: output rises when `set`, falls when
    /// `reset`, otherwise holds the value of the signal it drives.
    GcLatch {
        /// Set network root.
        set: NodeId,
        /// Reset network root.
        reset: NodeId,
        /// The signal this latch drives (for the hold value).
        holds: SignalId,
    },
}

/// A mapped circuit: one driver per non-input signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    signals: Vec<Signal>,
    nodes: Vec<Node>,
    /// Driving node per signal (None for inputs).
    drivers: Vec<Option<NodeId>>,
}

impl Netlist {
    /// Creates an empty netlist over the given signal table.
    pub fn new(signals: Vec<Signal>) -> Netlist {
        let n = signals.len();
        Netlist {
            signals,
            nodes: Vec::new(),
            drivers: vec![None; n],
        }
    }

    /// The signal table.
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// Looks up a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(SignalId::from_index)
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a gate's input count differs from its arity, or if a
    /// gate or latch input is not an earlier node: the node table stays
    /// in topological order, so one forward pass evaluates it.
    pub fn add(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let inputs_earlier = match &node {
            Node::SignalRef(_) | Node::Const(_) => true,
            Node::Gate(g, ins) => {
                assert_eq!(g.arity(), ins.len(), "gate arity mismatch");
                ins.iter().all(|i| i.0 < id.0)
            }
            Node::GcLatch { set, reset, .. } => set.0 < id.0 && reset.0 < id.0,
        };
        assert!(inputs_earlier, "node {} input is not an earlier node", id.0);
        self.nodes.push(node);
        id
    }

    /// The node table.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Sets the driver of a non-input signal.
    ///
    /// # Errors
    ///
    /// Rejects driving input signals or double-driving.
    pub fn set_driver(&mut self, s: SignalId, n: NodeId) -> Result<()> {
        if self.signals[s.index()].kind == SignalKind::Input {
            return Err(SynthError::Invalid(format!(
                "cannot drive input signal `{}`",
                self.signals[s.index()].name
            )));
        }
        if self.drivers[s.index()].is_some() {
            return Err(SynthError::Invalid(format!(
                "signal `{}` already driven",
                self.signals[s.index()].name
            )));
        }
        self.drivers[s.index()] = Some(n);
        Ok(())
    }

    /// The driver of a signal, if any.
    pub fn driver(&self, s: SignalId) -> Option<NodeId> {
        self.drivers[s.index()]
    }

    /// True if the signal is driven by a bare wire from another signal.
    pub fn is_wire(&self, s: SignalId) -> bool {
        match self.drivers[s.index()] {
            Some(n) => matches!(self.nodes[n.0 as usize], Node::SignalRef(_)),
            None => false,
        }
    }

    /// Total area under `lib`. Wires (bare `SignalRef` drivers) cost 0.
    pub fn area(&self, lib: &Library) -> f64 {
        let mut total = 0.0;
        for node in &self.nodes {
            total += match node {
                Node::SignalRef(_) | Node::Const(_) => 0.0,
                Node::Gate(g, _) => lib.area(*g),
                Node::GcLatch { .. } => lib.gc_core_area,
            };
        }
        total
    }

    /// Number of gates (excluding wires and constants).
    pub fn num_gates(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Gate(..) | Node::GcLatch { .. }))
            .count()
    }

    /// Evaluates the next value of every signal given the current code
    /// (bit i = value of signal i). Inputs keep their current value.
    /// Every node input is an earlier node, so one pass over the node
    /// table, in order, evaluates the whole netlist.
    pub fn next_code(&self, code: u64) -> u64 {
        let bit = |s: SignalId| (code >> s.index()) & 1 == 1;
        let mut val: Vec<bool> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let v = match node {
                Node::SignalRef(s) => bit(*s),
                Node::Const(b) => *b,
                Node::Gate(g, ins) => {
                    let x = |k: usize| val[ins[k].0 as usize];
                    match g {
                        GateType::Inv => !x(0),
                        // The mapper never emits a standalone C2 (a
                        // C-element driver is a GcLatch holding its own
                        // signal), so a bare C2 conservatively ANDs.
                        GateType::And2 | GateType::C2 => x(0) && x(1),
                        GateType::Or2 => x(0) || x(1),
                    }
                }
                // Set wins, then reset, else hold the driven signal.
                Node::GcLatch { set, reset, holds } => {
                    val[set.0 as usize] || (!val[reset.0 as usize] && bit(*holds))
                }
            };
            val.push(v);
        }
        let mut next = code;
        for (i, d) in self.drivers.iter().enumerate() {
            if let Some(n) = d {
                if val[n.0 as usize] {
                    next |= 1 << i;
                } else {
                    next &= !(1 << i);
                }
            }
        }
        next
    }

    /// Depth (in gates) of the network driving signal `s`; wires are 0.
    /// Sequential latches count as one gate of their own.
    pub fn depth(&self, s: SignalId) -> usize {
        match self.drivers[s.index()] {
            None => 0,
            Some(n) => self.node_depth(n),
        }
    }

    fn node_depth(&self, n: NodeId) -> usize {
        match &self.nodes[n.0 as usize] {
            Node::SignalRef(_) | Node::Const(_) => 0,
            Node::Gate(_, ins) => 1 + ins.iter().map(|&i| self.node_depth(i)).max().unwrap_or(0),
            Node::GcLatch { set, reset, .. } => {
                1 + self.node_depth(*set).max(self.node_depth(*reset))
            }
        }
    }

    /// Human-readable structural summary, one line per driven signal.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, d) in self.drivers.iter().enumerate() {
            if let Some(n) = d {
                out.push_str(&format!(
                    "{} = {}\n",
                    self.signals[i].name,
                    self.render_node(*n)
                ));
            }
        }
        out
    }

    fn render_node(&self, n: NodeId) -> String {
        match &self.nodes[n.0 as usize] {
            Node::SignalRef(s) => self.signals[s.index()].name.clone(),
            Node::Const(b) => if *b { "1" } else { "0" }.into(),
            Node::Gate(g, ins) => {
                let parts: Vec<String> = ins.iter().map(|&i| self.render_node(i)).collect();
                match g {
                    GateType::Inv => format!("{}'", parts[0]),
                    GateType::And2 => format!("({} & {})", parts[0], parts[1]),
                    GateType::Or2 => format!("({} | {})", parts[0], parts[1]),
                    GateType::C2 => format!("C({}, {})", parts[0], parts[1]),
                }
            }
            Node::GcLatch { set, reset, .. } => format!(
                "gC[set={}, reset={}]",
                self.render_node(*set),
                self.render_node(*reset)
            ),
        }
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_signal_table() -> Vec<Signal> {
        vec![
            Signal {
                name: "a".into(),
                kind: SignalKind::Input,
            },
            Signal {
                name: "b".into(),
                kind: SignalKind::Output,
            },
        ]
    }

    #[test]
    fn wire_costs_nothing() {
        let mut nl = Netlist::new(two_signal_table());
        let a_ref = nl.add(Node::SignalRef(SignalId(0)));
        nl.set_driver(SignalId(1), a_ref).unwrap();
        assert!(nl.is_wire(SignalId(1)));
        assert_eq!(nl.area(&Library::default()), 0.0);
        assert_eq!(nl.depth(SignalId(1)), 0);
        // b follows a.
        assert_eq!(nl.next_code(0b01) & 0b10, 0b10);
        assert_eq!(nl.next_code(0b00) & 0b10, 0b00);
    }

    #[test]
    fn gate_evaluation_and_area() {
        // b = a AND b (self-feedback keeps b high once a high... only
        // while a stays high).
        let mut nl = Netlist::new(two_signal_table());
        let a_ref = nl.add(Node::SignalRef(SignalId(0)));
        let b_ref = nl.add(Node::SignalRef(SignalId(1)));
        let or = nl.add(Node::Gate(GateType::Or2, vec![a_ref, b_ref]));
        nl.set_driver(SignalId(1), or).unwrap();
        let lib = Library::default();
        assert_eq!(nl.area(&lib), 32.0);
        assert_eq!(nl.num_gates(), 1);
        assert_eq!(nl.depth(SignalId(1)), 1);
        // Once b=1, it stays 1 (OR feedback).
        assert_eq!(nl.next_code(0b10) & 0b10, 0b10);
        assert_eq!(nl.next_code(0b01) & 0b10, 0b10);
        assert_eq!(nl.next_code(0b00) & 0b10, 0b00);
    }

    #[test]
    fn gc_latch_holds() {
        let mut nl = Netlist::new(two_signal_table());
        let a_ref = nl.add(Node::SignalRef(SignalId(0)));
        let na = nl.add(Node::Gate(GateType::Inv, vec![a_ref]));
        let latch = nl.add(Node::GcLatch {
            set: a_ref,
            reset: na,
            holds: SignalId(1),
        });
        nl.set_driver(SignalId(1), latch).unwrap();
        // set when a=1, reset when a=0: b follows a.
        assert_eq!(nl.next_code(0b01) & 0b10, 0b10);
        assert_eq!(nl.next_code(0b10) & 0b10, 0b00);
        let lib = Library::default();
        assert_eq!(nl.area(&lib), lib.inv_area + lib.gc_core_area);
        // Latch depth includes its networks.
        assert_eq!(nl.depth(SignalId(1)), 2);
    }

    #[test]
    #[should_panic(expected = "not an earlier node")]
    fn forward_references_are_rejected() {
        let mut nl = Netlist::new(two_signal_table());
        // Node 0 cannot read node 1: it does not exist yet.
        nl.add(Node::Gate(GateType::Inv, vec![NodeId(1)]));
    }

    #[test]
    fn cannot_drive_inputs_or_double_drive() {
        let mut nl = Netlist::new(two_signal_table());
        let c = nl.add(Node::Const(true));
        assert!(nl.set_driver(SignalId(0), c).is_err());
        nl.set_driver(SignalId(1), c).unwrap();
        assert!(nl.set_driver(SignalId(1), c).is_err());
    }

    #[test]
    fn describe_mentions_signals() {
        let mut nl = Netlist::new(two_signal_table());
        let a_ref = nl.add(Node::SignalRef(SignalId(0)));
        let inv = nl.add(Node::Gate(GateType::Inv, vec![a_ref]));
        nl.set_driver(SignalId(1), inv).unwrap();
        let d = nl.describe();
        assert!(d.contains("b = a'"));
    }
}
