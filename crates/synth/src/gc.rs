//! Generalized C-element (gC) synthesis: per signal, a set network and
//! a reset network around a state-holding latch.
//!
//! The set function must be 1 exactly on the excitation region of the
//! rising transition (don't care wherever the signal is high); dually
//! for reset. This is the implementation style of the paper's Fig. 3(c).

use reshuffle_logic::{complement, factor, minimize, Cover};
use reshuffle_petri::{SignalId, SignalKind};
use reshuffle_sg::StateGraph;

use crate::error::{Result, SynthError};
use crate::mapping::Mapper;
use crate::netlist::{Netlist, Node};

/// The minimized set/reset pair for one signal.
#[derive(Debug, Clone)]
pub struct GcFunction {
    /// The implemented signal.
    pub signal: SignalId,
    /// Minimized set cover (turn-on condition).
    pub set: Cover,
    /// Minimized reset cover (turn-off condition).
    pub reset: Cover,
}

impl GcFunction {
    /// Combined literal count of both networks.
    pub fn literals(&self) -> u32 {
        self.set.num_literals() + self.reset.num_literals()
    }
}

/// A synthesized generalized-C implementation.
#[derive(Debug, Clone)]
pub struct GcImpl {
    /// The mapped netlist.
    pub netlist: Netlist,
    /// Per-signal set/reset functions.
    pub functions: Vec<GcFunction>,
}

/// Derives the minimized set and reset covers of `signal`.
///
/// # Errors
///
/// [`SynthError::CscViolation`] if some code both excites and stabilizes
/// the signal at the same level (a CSC conflict visible to this signal).
pub fn derive_gc_function(sg: &StateGraph, signal: SignalId) -> Result<GcFunction> {
    let nv = sg.num_signals();
    let bit = 1u64 << signal.index();
    let mut set_on = Vec::new();
    let mut set_off = Vec::new();
    let mut reset_on = Vec::new();
    let mut reset_off = Vec::new();
    for s in sg.state_ids() {
        let code = sg.code(s);
        let x = sg.excitation(s);
        if code & bit != 0 {
            if x.fall & bit != 0 {
                reset_on.push(code);
            } else {
                reset_off.push(code);
            }
        } else if x.rise & bit != 0 {
            set_on.push(code);
        } else {
            set_off.push(code);
        }
    }
    for (on, off) in [(&mut set_on, &mut set_off), (&mut reset_on, &mut reset_off)] {
        // The minimizer and the complement weed their input first, so
        // sorting the code lists leaves the covers unchanged.
        on.sort_unstable();
        off.sort_unstable();
        let overlap = overlap(on, off);
        if overlap > 0 {
            return Err(SynthError::CscViolation {
                signal: sg.signal(signal).name.clone(),
                conflicts: overlap,
            });
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

/// Synthesizes a generalized-C circuit for every non-input signal.
///
/// Signals whose set/reset pair degenerates to a wire (`set = x`,
/// `reset = x'`) are mapped as plain wires.
///
/// # Errors
///
/// Propagates CSC violations from [`derive_gc_function`].
pub fn synthesize_gc(sg: &StateGraph) -> Result<GcImpl> {
    let mut netlist = Netlist::new(sg.signals().to_vec());
    let mut mapper = Mapper::new();
    let mut functions = Vec::new();
    for i in 0..sg.num_signals() {
        let s = SignalId::from_index(i);
        if sg.signal(s).kind == SignalKind::Input {
            continue;
        }
        let f = derive_gc_function(sg, s)?;
        // Wire detection: set = x (single positive literal), reset = x'.
        let wire_var = wire_pair(&f.set, &f.reset);
        if let Some(v) = wire_var {
            let r = mapper.signal_ref(&mut netlist, v);
            netlist.set_driver(s, r)?;
        } else {
            let set_root = mapper.map_expr(&mut netlist, &factor(&f.set));
            let reset_root = mapper.map_expr(&mut netlist, &factor(&f.reset));
            let latch = netlist.add(Node::GcLatch {
                set: set_root,
                reset: reset_root,
                holds: s,
            });
            netlist.set_driver(s, latch)?;
        }
        functions.push(f);
    }
    Ok(GcImpl { netlist, functions })
}

/// How many entries of `on`, repeats counted, also appear in `off`;
/// both lists ascend.
fn overlap(on: &[u64], off: &[u64]) -> usize {
    let mut j = 0;
    on.iter()
        .filter(|&&code| {
            while off.get(j).is_some_and(|&o| o < code) {
                j += 1;
            }
            off.get(j) == Some(&code)
        })
        .count()
}

/// If `set` is the single literal `x` and `reset` is `x'`, returns `x`.
fn wire_pair(set: &Cover, reset: &Cover) -> Option<usize> {
    if set.len() != 1 || reset.len() != 1 {
        return None;
    }
    let s = set.cubes()[0];
    let r = reset.cubes()[0];
    if s.num_literals() == 1 && r.num_literals() == 1 && s.pos != 0 && s.pos == r.neg {
        Some(s.pos.trailing_zeros() as usize)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;
    use reshuffle_petri::parse_g;
    use reshuffle_sg::build_state_graph;

    #[test]
    fn buffer_is_wire() {
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
        let imp = synthesize_gc(&sg).unwrap();
        let b = sg.signal_by_name("b").unwrap();
        assert!(imp.netlist.is_wire(b));
        assert_eq!(imp.netlist.area(&Library::default()), 0.0);
    }

    #[test]
    fn c_element_gets_latch() {
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
        let imp = synthesize_gc(&sg).unwrap();
        let b = sg.signal_by_name("b").unwrap();
        let f = &imp.functions[0];
        // set = a1 a2, reset = a1' a2'.
        assert_eq!(f.set.num_literals(), 2, "set={}", f.set);
        assert_eq!(f.reset.num_literals(), 2, "reset={}", f.reset);
        // The netlist holds state: evaluate across the cycle.
        for s in sg.state_ids() {
            let next = imp.netlist.next_code(sg.code(s));
            let want = reshuffle_sg::nextstate::implied_value(&sg, s, b);
            assert_eq!((next >> b.index()) & 1 == 1, want, "state {s}");
        }
    }

    #[test]
    fn csc_conflict_detected() {
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
        assert!(synthesize_gc(&sg).is_err());
    }

    #[test]
    fn overlap_counts_repeated_on_codes() {
        assert_eq!(overlap(&[1, 1, 2, 5, 9], &[1, 3, 5, 5]), 3);
        assert_eq!(overlap(&[], &[1]), 0);
        assert_eq!(overlap(&[4, 4], &[]), 0);
    }
}
