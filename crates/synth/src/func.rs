//! Deriving minimized next-state functions from a state graph.
//!
//! [`derive_all_functions`] derives every non-input signal of a graph
//! from one pass over its states ([`next_state_tables`]). Each signal's
//! function is its on-set minimized against a don't-care set: the codes
//! no state reaches, plus, under [`ConflictPolicy::DontCare`], the
//! codes the signal conflicts on. All signals share the reachable
//! codes, so every conflict-free signal has the same don't-care set. It
//! is built once per graph, and only when some conflict-free signal is
//! minimized; a signal with conflicting codes gets its own. Which
//! minimizer runs is decided once per graph too, by the number of
//! reachable codes.
//!
//! Every minimization goes through the run's [`CoverMemo`], keyed by
//! the variable count, the minimizer path and the on and off codes. A
//! signal whose table equals an earlier signal's in the same graph
//! takes that signal's cover (the scaled controller's request outputs
//! all follow `go`); a function the run minimized before, in another
//! graph or under the other policy, comes from the memo.

use reshuffle_logic::{complement, dont_care_isop, minimize, minimize_codes_with_dc, Cover};
use reshuffle_petri::SignalId;
use reshuffle_sg::nextstate::next_state_tables;
use reshuffle_sg::StateGraph;

use crate::error::{Result, SynthError};
use crate::memo::CoverMemo;

/// Above this many reachable codes per graph the cube-list espresso
/// path (quadratic-or-worse in the minterm count) is replaced by the
/// BDD-backed interval minimizer [`minimize_codes_with_dc`], whose cost
/// tracks the decision-diagram sizes instead. The corpus-sized
/// functions stay on the cube-list path so their covers — and the
/// literal counts pinned in `BENCH_tables.json` — are bit-for-bit
/// unchanged.
const SCALABLE_MINTERM_THRESHOLD: usize = 4096;

/// The minimized next-state function of one signal.
#[derive(Debug, Clone)]
pub struct SignalFunction {
    /// The signal implemented.
    pub signal: SignalId,
    /// Minimized cover of the next-state function.
    pub cover: Cover,
}

impl SignalFunction {
    /// Literal count of the minimized cover.
    pub fn literals(&self) -> u32 {
        self.cover.num_literals()
    }

    /// True if the function is a single positive literal of another
    /// signal (implementable as a plain wire).
    pub fn is_wire(&self) -> bool {
        self.cover.len() == 1 && {
            let c = self.cover.cubes()[0];
            c.num_literals() == 1 && c.pos.count_ones() == 1
        }
    }
}

/// How CSC conflicts are treated when deriving functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// Fail with [`SynthError::CscViolation`] (synthesis).
    Reject,
    /// Treat conflicting codes as don't-cares (cost estimation — the
    /// paper notes estimates are inaccurate under CSC conflicts).
    DontCare,
}

/// Derives and minimizes the next-state functions of all non-input
/// signals, in signal order, minimizing each function `memo` has not
/// seen.
///
/// # Errors
///
/// Under [`ConflictPolicy::Reject`], the [`SynthError::CscViolation`]
/// of the first signal (in signal order) that has conflicting codes,
/// before anything is minimized.
pub fn derive_all_functions(
    sg: &StateGraph,
    policy: ConflictPolicy,
    memo: &CoverMemo,
) -> Result<Vec<SignalFunction>> {
    let tables = next_state_tables(sg);
    let signals: Vec<SignalId> = (0..sg.num_signals())
        .map(SignalId::from_index)
        .filter(|&s| sg.signal(s).kind.is_noninput())
        .collect();
    if policy == ConflictPolicy::Reject {
        for &s in &signals {
            let conflicts = tables.conflicts(s);
            if conflicts > 0 {
                return Err(SynthError::CscViolation {
                    signal: sg.signal(s).name.clone(),
                    conflicts,
                });
            }
        }
    }
    let nv = tables.num_vars();
    let reachable = tables.reachable();
    let cube_list = reachable.len() <= SCALABLE_MINTERM_THRESHOLD;
    // The don't-care cover of everything outside `care`: its cube-list
    // complement, or on the BDD path its exact ISOP. Either depends only
    // on the set of care codes, not on their order.
    let dont_care = |care: &[u64]| {
        if cube_list {
            complement(&Cover::from_minterms(nv, care))
        } else {
            dont_care_isop(nv, care)
        }
    };
    let mut shared_dc = None;
    // The graph's distinct functions so far, as (signal, index into
    // `out`): a signal with the same table takes that cover, even when
    // the memo stores nothing.
    let mut distinct: Vec<(SignalId, usize)> = Vec::new();
    let mut out: Vec<SignalFunction> = Vec::with_capacity(signals.len());
    for signal in signals {
        if let Some(&(_, i)) = distinct
            .iter()
            .find(|&&(s, _)| tables.same_table(s, signal))
        {
            memo.record_hit();
            let cover = out[i].cover.clone();
            out.push(SignalFunction { signal, cover });
            continue;
        }
        distinct.push((signal, out.len()));
        let t = tables.table(signal);
        let conflict_free = t.is_conflict_free();
        let key = memo.key(nv, !cube_list, t.on, t.off);
        let cover = memo.cover(key, |on, off| {
            let own_dc;
            let dc = if conflict_free {
                &*shared_dc.get_or_insert_with(|| dont_care(reachable))
            } else {
                // Conflicting codes are in neither list, i.e. don't-care.
                own_dc = dont_care(&[on, off].concat());
                &own_dc
            };
            if cube_list {
                minimize(&Cover::from_minterms(nv, on), dc)
            } else {
                minimize_codes_with_dc(nv, on, off, dc)
            }
        });
        out.push(SignalFunction { signal, cover });
    }
    Ok(out)
}

/// Total literal count over all non-input signals — the logic-complexity
/// estimate used by the reduction search (conflicting codes as DC).
pub fn literal_estimate_with(sg: &StateGraph, memo: &CoverMemo) -> u32 {
    derive_all_functions(sg, ConflictPolicy::DontCare, memo)
        .map(|fs| fs.iter().map(SignalFunction::literals).sum())
        .unwrap_or(u32::MAX)
}

/// [`literal_estimate_with`] on a fresh memo.
pub fn literal_estimate(sg: &StateGraph) -> u32 {
    literal_estimate_with(sg, &CoverMemo::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshuffle_petri::parse_g;
    use reshuffle_sg::build_state_graph;

    /// The derived function of `signal`.
    fn derive(sg: &StateGraph, signal: SignalId, policy: ConflictPolicy) -> Result<SignalFunction> {
        let fs = derive_all_functions(sg, policy, &CoverMemo::new())?;
        Ok(fs.into_iter().find(|f| f.signal == signal).unwrap())
    }

    const PIPELINE: &str = "\
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

    #[test]
    fn buffer_becomes_wire() {
        let sg = build_state_graph(&parse_g(PIPELINE).unwrap()).unwrap();
        let b = sg.signal_by_name("b").unwrap();
        let f = derive(&sg, b, ConflictPolicy::Reject).unwrap();
        // b's next value equals a: a single positive literal.
        assert!(f.is_wire(), "{}", f.cover);
        assert_eq!(f.literals(), 1);
    }

    #[test]
    fn csc_violation_rejected() {
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
        let e = derive(&sg, ack, ConflictPolicy::Reject).unwrap_err();
        assert!(matches!(e, SynthError::CscViolation { .. }));
        // Estimation mode still succeeds.
        let f = derive(&sg, ack, ConflictPolicy::DontCare).unwrap();
        assert!(f.literals() <= 2);
    }

    #[test]
    fn c_element_function() {
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
        let f = derive(&sg, b, ConflictPolicy::Reject).unwrap();
        // Classic majority: b' = a1 a2 + b (a1 + a2): 2-3 cubes.
        assert!(f.cover.len() <= 3, "{}", f.cover);
        // Must evaluate correctly on every reachable state.
        for s in sg.state_ids() {
            let implied = reshuffle_sg::nextstate::implied_value(&sg, s, b);
            assert_eq!(f.cover.covers_point(sg.code(s)), implied, "state {s}");
        }
        let est = literal_estimate(&sg);
        assert!((4..=8).contains(&est), "{est}");
    }
}
