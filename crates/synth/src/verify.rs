//! Implementation verification: does a netlist realize the state graph?
//!
//! For speed-independent complex-gate (and gC) implementations the
//! defining correctness condition is that, in every reachable state,
//! the next value computed by each signal's network equals the implied
//! value of that signal (rise-excited ⇒ 1, fall-excited ⇒ 0, stable ⇒
//! current value). This catches minimizer, factoring and mapping bugs.
//! [`verify_against_sg`] also rejects a netlist that leaves a non-input
//! signal without a driver, which the value check alone would pass.

use reshuffle_petri::SignalId;
use reshuffle_sg::StateGraph;

use crate::error::{Result, SynthError};
use crate::netlist::Netlist;

/// A single verification mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// State where the netlist disagrees with the specification.
    pub state: reshuffle_sg::StateId,
    /// The signal computed wrongly.
    pub signal: String,
    /// Value the specification implies.
    pub expected: bool,
    /// Value the netlist computes.
    pub got: bool,
}

/// Checks the netlist against every reachable state of the graph: each
/// driven non-input signal's next value against the implied value read
/// off the state's excitation. Signals without a driver are skipped.
///
/// Returns all mismatches (empty = correct), in state order, then
/// signal order.
pub fn check_against_sg(sg: &StateGraph, netlist: &Netlist) -> Vec<Mismatch> {
    let checked = (0..sg.num_signals())
        .filter(|&i| netlist.driver(SignalId::from_index(i)).is_some())
        .fold(0u64, |mask, i| mask | 1 << i)
        & !sg.input_signals();
    let mut out = Vec::new();
    for s in sg.state_ids() {
        let code = sg.code(s);
        let expected = sg.excitation(s).implied(code);
        let mut wrong = (expected ^ netlist.next_code(code)) & checked;
        while wrong != 0 {
            let i = wrong.trailing_zeros() as usize;
            wrong &= wrong - 1;
            let expected = expected >> i & 1 == 1;
            out.push(Mismatch {
                state: s,
                signal: sg.signals()[i].name.clone(),
                expected,
                got: !expected,
            });
        }
    }
    out
}

/// Verifies the netlist: every non-input signal has a driver, and
/// [`check_against_sg`] finds no mismatch.
///
/// # Errors
///
/// [`SynthError::VerificationFailed`] naming the first undriven signal,
/// or else describing the first mismatch.
pub fn verify_against_sg(sg: &StateGraph, netlist: &Netlist) -> Result<()> {
    let undriven = sg.signals().iter().enumerate().find(|&(i, sig)| {
        sig.kind.is_noninput() && netlist.driver(SignalId::from_index(i)).is_none()
    });
    if let Some((_, sig)) = undriven {
        return Err(SynthError::VerificationFailed(format!(
            "non-input signal `{}` has no driver",
            sig.name
        )));
    }
    let mismatches = check_against_sg(sg, netlist);
    match mismatches.first() {
        None => Ok(()),
        Some(m) => Err(SynthError::VerificationFailed(format!(
            "state {} ({}): signal `{}` computes {} but specification implies {}",
            m.state,
            sg.render_state(m.state),
            m.signal,
            m.got as u8,
            m.expected as u8
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complexgate::synthesize_complex_gates;
    use crate::gc::synthesize_gc;
    use crate::library::GateType;
    use crate::netlist::Node;
    use reshuffle_petri::parse_g;
    use reshuffle_sg::build_state_graph;

    const CELEM: &str = "\
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

    #[test]
    fn complex_gate_and_gc_both_verify() {
        let sg = build_state_graph(&parse_g(CELEM).unwrap()).unwrap();
        let cg = synthesize_complex_gates(&sg).unwrap();
        verify_against_sg(&sg, &cg.netlist).unwrap();
        let gc = synthesize_gc(&sg).unwrap();
        verify_against_sg(&sg, &gc.netlist).unwrap();
    }

    #[test]
    fn wrong_netlist_caught() {
        let sg = build_state_graph(&parse_g(CELEM).unwrap()).unwrap();
        // Drive b with a1 AND NOT a2 — wrong.
        let mut nl = Netlist::new(sg.signals().to_vec());
        let a1 = nl.add(Node::SignalRef(SignalId(0)));
        let a2 = nl.add(Node::SignalRef(SignalId(1)));
        let na2 = nl.add(Node::Gate(GateType::Inv, vec![a2]));
        let and = nl.add(Node::Gate(GateType::And2, vec![a1, na2]));
        let b = sg.signal_by_name("b").unwrap();
        nl.set_driver(b, and).unwrap();
        let ms = check_against_sg(&sg, &nl);
        assert!(!ms.is_empty());
        assert!(verify_against_sg(&sg, &nl).is_err());
    }

    #[test]
    fn undriven_signal_caught() {
        let sg = build_state_graph(&parse_g(CELEM).unwrap()).unwrap();
        let nl = Netlist::new(sg.signals().to_vec());
        // The value check skips undriven signals, so an empty netlist
        // has no mismatch; verification rejects it all the same.
        assert!(check_against_sg(&sg, &nl).is_empty());
        let err = verify_against_sg(&sg, &nl).unwrap_err().to_string();
        assert!(err.contains("`b` has no driver"), "{err}");
    }
}
