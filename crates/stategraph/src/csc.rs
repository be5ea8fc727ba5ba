//! Unique and Complete State Coding (USC/CSC) analysis.
//!
//! A consistent SG has *CSC* iff every pair of states with equal binary
//! codes enables the same set of non-input signal events (Section 2).
//! CSC is necessary and sufficient for deriving logic; the number of
//! remaining conflicts drives the cost function of the reduction search.
//! [`analyze_csc`] compares the [`StateGraph::excitation`] masks of
//! equally coded states, restricted to non-input signals.

use crate::sg::{StateGraph, StateId};

/// A pair of states witnessing a coding conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodingConflict {
    /// First state (lower id).
    pub a: StateId,
    /// Second state.
    pub b: StateId,
    /// The shared binary code.
    pub code: u64,
    /// True if the pair also violates CSC (different non-input
    /// excitation); false for pure USC conflicts.
    pub csc: bool,
}

/// Report of all USC/CSC conflicts of a state graph.
#[derive(Debug, Clone, Default)]
pub struct CscReport {
    /// All conflicting pairs (USC conflicts; `csc` marks CSC ones).
    pub conflicts: Vec<CodingConflict>,
}

impl CscReport {
    /// Number of CSC-violating pairs.
    pub fn num_csc_conflicts(&self) -> usize {
        self.conflicts.iter().filter(|c| c.csc).count()
    }

    /// Number of USC-violating pairs (includes CSC pairs).
    pub fn num_usc_conflicts(&self) -> usize {
        self.conflicts.len()
    }

    /// True if the graph satisfies CSC.
    pub fn has_csc(&self) -> bool {
        self.num_csc_conflicts() == 0
    }

    /// True if the graph satisfies USC (stronger than CSC).
    pub fn has_usc(&self) -> bool {
        self.conflicts.is_empty()
    }

    /// The number of distinct binary codes involved in CSC conflicts.
    pub fn num_conflicting_codes(&self) -> usize {
        let mut codes: Vec<u64> = self
            .conflicts
            .iter()
            .filter(|c| c.csc)
            .map(|c| c.code)
            .collect();
        codes.sort_unstable();
        codes.dedup();
        codes.len()
    }
}

/// Computes all USC/CSC conflicts, ordered by `(a, b)`: the states
/// sorted by code, and each pair of equally coded states compared on
/// its non-input excitation.
pub fn analyze_csc(sg: &StateGraph) -> CscReport {
    let noninput = !sg.input_signals();
    let excited = |s| {
        let x = sg.excitation(s);
        [x.rise, x.fall, x.toggle].map(|mask| mask & noninput)
    };
    let mut states: Vec<(u64, StateId)> = sg.state_ids().map(|s| (sg.code(s), s)).collect();
    states.sort_unstable();
    let mut conflicts = Vec::new();
    for (i, &(code, a)) in states.iter().enumerate() {
        for &(_, b) in states[i + 1..].iter().take_while(|&&(c, _)| c == code) {
            let csc = excited(a) != excited(b);
            conflicts.push(CodingConflict { a, b, code, csc });
        }
    }
    conflicts.sort_unstable_by_key(|c| (c.a, c.b));
    CscReport { conflicts }
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
    fn fig1_has_one_csc_conflict() {
        // The paper: binary codes 11* and 1*1 correspond to different
        // states -> CSC violated.
        let sg = build_state_graph(&parse_g(FIG1).unwrap()).unwrap();
        let rep = analyze_csc(&sg);
        assert!(!rep.has_csc());
        assert_eq!(rep.num_csc_conflicts(), 1);
        let c = rep.conflicts.iter().find(|c| c.csc).unwrap();
        // One of the two states enables Ack- (an output), the other not.
        let ack = sg.signal_by_name("Ack").unwrap().index();
        let falls = |s| sg.excitation(s).fall >> ack & 1;
        assert_ne!(falls(c.a), falls(c.b));
    }

    #[test]
    fn simple_pipeline_has_csc() {
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
        let rep = analyze_csc(&sg);
        assert!(rep.has_csc());
        assert!(rep.has_usc());
        assert_eq!(rep.num_conflicting_codes(), 0);
    }

    #[test]
    fn usc_without_csc_conflict() {
        // Two states share code 10 but enable the same outputs (none):
        // after a+ (environment) the circuit is idle both times.
        // Construct: a+ b+ a- b- a+/2 ... a cycle revisiting code.
        let src = "\
.model usc
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+/2
a+/2 b+/2
b+/2 a-/2
a-/2 b-/2
b-/2 a+
.marking { <b-/2,a+> }
.end
";
        let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
        let rep = analyze_csc(&sg);
        // Eight states, four distinct codes, each shared by two states
        // with identical output excitation -> USC conflicts, no CSC.
        assert_eq!(sg.num_states(), 8);
        assert!(rep.has_csc(), "{:?}", rep.conflicts);
        assert!(!rep.has_usc());
        assert_eq!(rep.num_usc_conflicts(), 4);
    }
}
