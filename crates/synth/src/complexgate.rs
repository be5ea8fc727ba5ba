//! Complex-gate synthesis: one (decomposed) atomic gate per signal.
//!
//! Each non-input signal is driven by its minimized next-state function
//! mapped as a factored 2-input-gate network with feedback from the
//! signal itself where the function is self-dependent.

use reshuffle_logic::factor;
use reshuffle_sg::StateGraph;

use crate::error::Result;
use crate::func::{derive_all_functions, ConflictPolicy, SignalFunction};
use crate::mapping::Mapper;
use crate::memo::CoverMemo;
use crate::netlist::Netlist;

/// A synthesized complex-gate implementation.
#[derive(Debug, Clone)]
pub struct ComplexGateImpl {
    /// The mapped netlist.
    pub netlist: Netlist,
    /// The per-signal minimized functions (for reports).
    pub functions: Vec<SignalFunction>,
}

/// Synthesizes a complex-gate circuit for every non-input signal of the
/// state graph, minimizing each function `memo` has not seen.
///
/// # Errors
///
/// [`crate::SynthError::CscViolation`] if any signal's coding conflicts
/// make its function ill-defined.
pub fn synthesize_complex_gates_with(sg: &StateGraph, memo: &CoverMemo) -> Result<ComplexGateImpl> {
    let functions = derive_all_functions(sg, ConflictPolicy::Reject, memo)?;
    let mut netlist = Netlist::new(sg.signals().to_vec());
    let mut mapper = Mapper::new();
    for f in &functions {
        let expr = factor(&f.cover);
        let root = mapper.map_expr(&mut netlist, &expr);
        netlist.set_driver(f.signal, root)?;
    }
    Ok(ComplexGateImpl { netlist, functions })
}

/// [`synthesize_complex_gates_with`] on a fresh memo.
///
/// # Errors
///
/// See [`synthesize_complex_gates_with`].
pub fn synthesize_complex_gates(sg: &StateGraph) -> Result<ComplexGateImpl> {
    synthesize_complex_gates_with(sg, &CoverMemo::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;
    use reshuffle_petri::parse_g;
    use reshuffle_sg::build_state_graph;

    #[test]
    fn buffer_synthesizes_to_wire() {
        let src = "\
.model ok
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";
        let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
        let imp = synthesize_complex_gates(&sg).unwrap();
        let b = sg.signal_by_name("b").unwrap();
        assert!(imp.netlist.is_wire(b));
        assert_eq!(imp.netlist.area(&Library::default()), 0.0);
    }

    #[test]
    fn c_element_synthesizes_with_feedback() {
        let src = "\
.model celem
.inputs a1 a2
.outputs b
.graph
a1+ b+
a2+ b+
b+ a1- a2-
a1- b-
a2- b-
b- a1+ a2+
.marking { <b-,a1+> <b-,a2+> }
.end
";
        let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
        let imp = synthesize_complex_gates(&sg).unwrap();
        let b = sg.signal_by_name("b").unwrap();
        assert!(!imp.netlist.is_wire(b));
        // Next-code must match implied values on every state.
        for s in sg.state_ids() {
            let next = imp.netlist.next_code(sg.code(s));
            let want = reshuffle_sg::nextstate::implied_value(&sg, s, b);
            assert_eq!((next >> b.index()) & 1 == 1, want, "state {s}");
        }
        assert!(imp.netlist.area(&Library::default()) > 0.0);
    }

    #[test]
    fn csc_conflict_propagates_error() {
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
        let sg = build_state_graph(&parse_g(FIG1).unwrap()).unwrap();
        assert!(synthesize_complex_gates(&sg).is_err());
    }
}
