//! Next-state functions of non-input signals.
//!
//! For each non-input signal `a`, every reachable state is classified:
//! the *implied value* of `a` is 1 if `a` is high and stable or low and
//! excited (rising), and 0 symmetrically. Only `+` and `-` edges excite
//! a signal; toggles and dummies do not. Binary codes reached by no
//! state form the external don't-care set. Codes that appear with both
//! implied values are *CSC-conflicting* for `a`; logic cannot be derived
//! for them, and the reduction cost function penalizes them.
//!
//! [`next_state_tables`] classifies every signal in one pass over the
//! states: each state's implied values form one word, read off its
//! [`StateGraph::excitation`], and the words are grouped by code.
//! [`NextStateTables::table`] then splits one signal's codes into on,
//! off and conflicting lists without another visit to the graph. All signals share the reachable codes
//! ([`NextStateTables::reachable`]), and so, when conflict-free, the
//! same don't-care set. [`implied_value`] is the per-state definition.

use reshuffle_petri::SignalId;

use crate::sg::{StateGraph, StateId};

/// The on/off/conflict partition of binary codes for one signal.
#[derive(Debug, Clone)]
pub struct NextStateTable {
    /// The signal being implemented.
    pub signal: SignalId,
    /// Codes whose implied next value is 1 (minus conflicts), ascending.
    pub on: Vec<u64>,
    /// Codes whose implied next value is 0 (minus conflicts), ascending.
    pub off: Vec<u64>,
    /// Codes implied both 1 and 0 by different states (CSC conflicts
    /// affecting this signal), ascending.
    pub conflicting: Vec<u64>,
    /// Number of variables (signals) in each code.
    pub num_vars: usize,
}

impl NextStateTable {
    /// True if the function is well-defined on all reachable codes.
    pub fn is_conflict_free(&self) -> bool {
        self.conflicting.is_empty()
    }
}

/// The implied next values of every signal of a graph, grouped by
/// binary code. Bit `i` of a word stands for the signal with index `i`.
#[derive(Debug, Clone)]
pub struct NextStateTables {
    num_vars: usize,
    /// The distinct reachable codes, ascending.
    codes: Vec<u64>,
    /// Per code: the signals some state with that code implies 1.
    high: Vec<u64>,
    /// Per code: the signals some state with that code implies 0.
    low: Vec<u64>,
}

impl NextStateTables {
    /// Number of variables (signals) in each code.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The distinct reachable codes, ascending: the care set of every
    /// signal whose table is conflict-free.
    pub fn reachable(&self) -> &[u64] {
        &self.codes
    }

    /// Number of codes that `sig` conflicts on.
    pub fn conflicts(&self, sig: SignalId) -> usize {
        let bit = 1u64 << sig.index();
        self.high
            .iter()
            .zip(&self.low)
            .filter(|&(&h, &l)| h & l & bit != 0)
            .count()
    }

    /// True if `a` and `b` have the same table: every code implies the
    /// same values for both.
    pub fn same_table(&self, a: SignalId, b: SignalId) -> bool {
        let (i, j) = (a.index(), b.index());
        let agree = |&w: &u64| (w >> i) & 1 == (w >> j) & 1;
        self.high.iter().all(agree) && self.low.iter().all(agree)
    }

    /// The on/off/conflict partition of `sig`'s reachable codes.
    pub fn table(&self, sig: SignalId) -> NextStateTable {
        let bit = 1u64 << sig.index();
        let mut table = NextStateTable {
            signal: sig,
            on: Vec::new(),
            off: Vec::new(),
            conflicting: Vec::new(),
            num_vars: self.num_vars,
        };
        for ((&code, &h), &l) in self.codes.iter().zip(&self.high).zip(&self.low) {
            // Every listed code has a state, so at least one bit is set.
            match (h & bit != 0, l & bit != 0) {
                (true, false) => table.on.push(code),
                (false, true) => table.off.push(code),
                _ => table.conflicting.push(code),
            }
        }
        table
    }
}

/// The implied next value of `sig` in state `s`.
pub fn implied_value(sg: &StateGraph, s: StateId, sig: SignalId) -> bool {
    sg.excitation(s).implied(sg.code(s)) >> sig.index() & 1 == 1
}

/// Classifies every signal of `sg` in one pass over its states: per
/// state, the word of implied values is [`Excitation::implied`] of its
/// code, whose bit `i` is [`implied_value`] for signal `i`.
///
/// [`Excitation::implied`]: crate::Excitation::implied
pub fn next_state_tables(sg: &StateGraph) -> NextStateTables {
    let mut implied: Vec<(u64, u64)> = sg
        .state_ids()
        .map(|s| {
            let code = sg.code(s);
            (code, sg.excitation(s).implied(code))
        })
        .collect();
    implied.sort_unstable();
    let mut tables = NextStateTables {
        num_vars: sg.num_signals(),
        codes: Vec::new(),
        high: Vec::new(),
        low: Vec::new(),
    };
    for (code, next) in implied {
        if tables.codes.last() == Some(&code) {
            *tables.high.last_mut().expect("parallel to codes") |= next;
            *tables.low.last_mut().expect("parallel to codes") |= !next;
        } else {
            tables.codes.push(code);
            tables.high.push(next);
            tables.low.push(!next);
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_state_graph;
    use reshuffle_petri::parse_g;

    #[test]
    fn c_element_next_state() {
        // b = C(a1, a2): b+ after both inputs rise, b- after both fall.
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
        let b = sg.signal_by_name("b").unwrap();
        let tables = next_state_tables(&sg);
        let t = tables.table(b);
        assert!(t.is_conflict_free());
        assert_eq!(tables.conflicts(b), 0);
        // ON: code a1=1,a2=1 (any b) plus b=1 with not both low.
        // Verify the defining corners: (1,1,0) is ON, (0,0,1) is OFF.
        let a1 = sg.signal_by_name("a1").unwrap().index();
        let a2 = sg.signal_by_name("a2").unwrap().index();
        let bi = b.index();
        let on_code = (1 << a1) | (1 << a2);
        let off_code = 1 << bi;
        assert!(t.on.contains(&on_code), "{t:?}");
        assert!(t.off.contains(&off_code), "{t:?}");
        // Codes partition: on + off = reachable codes.
        let mut codes: Vec<u64> = sg.state_ids().map(|s| sg.code(s)).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(t.on.len() + t.off.len(), codes.len());
        assert_eq!(tables.reachable(), codes);
    }

    #[test]
    fn conflicting_codes_detected() {
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
        let ack = sg.signal_by_name("Ack").unwrap();
        let tables = next_state_tables(&sg);
        let t = tables.table(ack);
        // States 11* and 1*1 share a code but imply Ack=1 and Ack=0.
        assert_eq!(t.conflicting.len(), 1);
        assert_eq!(tables.conflicts(ack), 1);
        assert!(!t.is_conflict_free());
    }

    /// The one-pass tables against [`implied_value`], state by state:
    /// for every signal, a code is on, off or conflicting exactly as
    /// the states carrying it imply, and each list ascends.
    #[test]
    fn tables_match_implied_value_per_state() {
        const TOGGLES: &str = "\
.model t2
.inputs a
.outputs b
.graph
a~ b~
b~ a~
.marking { <b~,a~> }
.end
";
        const DUMMIES: &str = "\
.model d
.inputs a
.outputs b
.dummy t
.graph
a+ t
t b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";
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
        for src in [TOGGLES, DUMMIES, FIG1] {
            let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
            let tables = next_state_tables(&sg);
            for i in 0..sg.num_signals() {
                let sig = SignalId::from_index(i);
                let (mut ones, mut zeros) = (Vec::new(), Vec::new());
                for s in sg.state_ids() {
                    let side = if implied_value(&sg, s, sig) {
                        &mut ones
                    } else {
                        &mut zeros
                    };
                    side.push(sg.code(s));
                }
                for side in [&mut ones, &mut zeros] {
                    side.sort_unstable();
                    side.dedup();
                }
                let t = tables.table(sig);
                let both: Vec<u64> = ones.iter().filter(|c| zeros.contains(c)).copied().collect();
                ones.retain(|c| !both.contains(c));
                zeros.retain(|c| !both.contains(c));
                let at = format!("{} signal {i}", sg.name());
                assert_eq!(t.on, ones, "{at}");
                assert_eq!(t.off, zeros, "{at}");
                assert_eq!(t.conflicting, both, "{at}");
                assert_eq!(tables.conflicts(sig), both.len(), "{at}");
            }
            // Two signals have the same table exactly when their lists
            // agree.
            for a in (0..sg.num_signals()).map(SignalId::from_index) {
                for b in (0..sg.num_signals()).map(SignalId::from_index) {
                    let (ta, tb) = (tables.table(a), tables.table(b));
                    let equal = (ta.on, ta.off, ta.conflicting) == (tb.on, tb.off, tb.conflicting);
                    assert_eq!(tables.same_table(a, b), equal, "{} {a:?} {b:?}", sg.name());
                }
            }
        }
    }
}
