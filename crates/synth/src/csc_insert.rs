//! CSC resolution by state-signal insertion.
//!
//! petrify resolves CSC with region-based bisection of the state graph;
//! this crate substitutes a search over STG-level *serial transition
//! insertions*. A candidate inserts `csc_k+` in series after event `x`
//! and `csc_k-` after event `y` (never delaying input transitions); it
//! is kept if the resulting STG is consistent, speed-independent,
//! interface-preserving by construction, and strictly reduces the
//! number of CSC conflicts. Candidates are ranked by (remaining
//! conflicts, literal estimate).
//!
//! Each candidate's state graph is derived from its parent's by
//! [`insert_series_pair`], a product with a small automaton, instead
//! of being built from scratch. The derived graph equals the full
//! build code for code and arc for arc, so the returned STG and graph
//! are exactly what a from-scratch search would return. A parent with
//! toggle edges unfolds `(marking, parity)` pairs, which the product
//! does not model, so its candidates are all built in full.

use reshuffle_petri::structural::insert_series_transition;
use reshuffle_petri::{Polarity, SignalKind, Stg, TransitionId};
use reshuffle_sg::csc::{analyze_csc, CscReport};
use reshuffle_sg::props::speed_independence;
use reshuffle_sg::restrict::insert_series_pair;
use reshuffle_sg::{build_state_graph, StateGraph};

use crate::error::{Result, SynthError};
use crate::func::literal_estimate;

/// Result of CSC resolution.
#[derive(Debug, Clone)]
pub struct CscResolution {
    /// The transformed STG with inserted state signals.
    pub stg: Stg,
    /// Its (conflict-free) state graph.
    pub sg: StateGraph,
    /// Names of the inserted internal signals.
    pub inserted: Vec<String>,
    /// Feasible insertion candidates evaluated across all rounds — the
    /// search-effort counter the facade surfaces as resolve-stage
    /// diagnostics (0 when the input already had CSC).
    pub tried: usize,
    /// Full state-graph builds the search ran: every candidate of a
    /// parent with toggle edges, and none otherwise.
    pub rebuilt: usize,
}

/// Options controlling the insertion search.
#[derive(Debug, Clone)]
pub struct CscOptions {
    /// Maximum number of state signals to insert.
    pub max_signals: usize,
    /// How many least-conflict candidates get an exact literal estimate.
    pub rank_pool: usize,
}

impl Default for CscOptions {
    fn default() -> Self {
        CscOptions {
            max_signals: 4,
            rank_pool: 12,
        }
    }
}

/// Resolves CSC conflicts of `stg` by inserting internal state signals.
///
/// Returns the transformed STG (unchanged if it already has CSC).
///
/// # Errors
///
/// * [`SynthError::Sg`] if the input STG cannot be built into a state
///   graph at all;
/// * [`SynthError::CscResolutionFailed`] if no insertion reduces the
///   conflict count or the signal budget is exhausted.
pub fn resolve_csc(stg: &Stg, opts: &CscOptions) -> Result<CscResolution> {
    let sg = build_state_graph(stg)?;
    resolve_csc_from(stg, sg, opts)
}

/// [`resolve_csc`] for callers that already built the specification's
/// state graph (`sg` must be the state graph of `stg`); avoids
/// rebuilding it, which dominates on concurrent specs.
///
/// # Errors
///
/// See [`resolve_csc`].
pub fn resolve_csc_from(stg: &Stg, sg: StateGraph, opts: &CscOptions) -> Result<CscResolution> {
    let analysis = analyze_csc(&sg);
    resolve_csc_analyzed(stg, sg, &analysis, opts)
}

/// [`resolve_csc_from`] for callers that already analyzed the state
/// graph's coding (`analysis` must be `analyze_csc(&sg)`); the resolver
/// never re-analyzes a graph it was handed an analysis for — each STG
/// in the search is analyzed exactly once.
///
/// # Errors
///
/// See [`resolve_csc`].
pub fn resolve_csc_analyzed(
    stg: &Stg,
    sg: StateGraph,
    analysis: &CscReport,
    opts: &CscOptions,
) -> Result<CscResolution> {
    let mut current = stg.clone();
    let mut sg = sg;
    let mut conflicts = analysis.num_csc_conflicts();
    let mut inserted: Vec<String> = Vec::new();
    let mut tried = 0usize;
    let mut rebuilt = 0usize;
    loop {
        if conflicts == 0 {
            return Ok(CscResolution {
                stg: current,
                sg,
                inserted,
                tried,
                rebuilt,
            });
        }
        if inserted.len() >= opts.max_signals {
            return Err(SynthError::CscResolutionFailed {
                remaining: conflicts,
                inserted: inserted.len(),
            });
        }
        let name = format!("csc{}", inserted.len());
        let round = best_insertion(&current, &sg, &name, conflicts, opts);
        tried += round.tried;
        rebuilt += round.rebuilt;
        match round.best {
            Some((stg2, sg2, remaining)) => {
                current = stg2;
                sg = sg2;
                conflicts = remaining;
                inserted.push(name);
            }
            None => {
                return Err(SynthError::CscResolutionFailed {
                    remaining: conflicts,
                    inserted: inserted.len(),
                })
            }
        }
    }
}

/// One round of the insertion search.
struct Round {
    /// The winning candidate, its state graph and its remaining
    /// conflict count (so the caller never re-analyzes it).
    best: Option<(Stg, StateGraph, usize)>,
    /// Feasible candidates evaluated.
    tried: usize,
    /// Full state-graph builds run.
    rebuilt: usize,
}

/// Tries every (x, y) insertion pair on `stg`, whose state graph is
/// `sg`; returns the best strictly-improving candidate.
fn best_insertion(
    stg: &Stg,
    sg: &StateGraph,
    signal_name: &str,
    current_conflicts: usize,
    opts: &CscOptions,
) -> Round {
    let transitions: Vec<TransitionId> = stg.transitions().collect();
    let full_builds = stg.has_toggle_transitions();
    // Phase 1: collect feasible candidates with their conflict counts.
    let mut tried = 0usize;
    let mut rebuilt = 0usize;
    let mut feasible: Vec<(usize, Stg, StateGraph)> = Vec::new();
    for &tx in &transitions {
        for &ty in &transitions {
            if tx == ty {
                continue;
            }
            let Some((cand, rise, fall)) = try_insertion(stg, signal_name, tx, ty) else {
                continue;
            };
            let built = if full_builds {
                rebuilt += 1;
                build_state_graph(&cand)
            } else {
                insert_series_pair(sg, &cand, rise, fall)
            };
            let Ok(sg2) = built else {
                continue;
            };
            if !speed_independence(&sg2).is_speed_independent() {
                continue;
            }
            tried += 1;
            let c = analyze_csc(&sg2).num_csc_conflicts();
            if c < current_conflicts {
                feasible.push((c, cand, sg2));
            }
        }
    }
    // Phase 2: among the least-conflict pool, rank by literal estimate.
    feasible.sort_by_key(|(c, _, _)| *c);
    let best_c = feasible.first().map(|(c, _, _)| *c);
    let best = feasible
        .into_iter()
        .filter(|(c, _, _)| Some(*c) == best_c)
        .take(opts.rank_pool)
        .min_by_key(|(_, _, sg2)| literal_estimate(sg2))
        .map(|(c, cand, sg2)| (cand, sg2, c));
    Round {
        best,
        tried,
        rebuilt,
    }
}

/// Builds the candidate STG with `name+` inserted after `tx` and `name-`
/// after `ty`, returning it with the two inserted transitions; `None` if
/// the structural insertion is infeasible.
fn try_insertion(
    stg: &Stg,
    name: &str,
    tx: TransitionId,
    ty: TransitionId,
) -> Option<(Stg, TransitionId, TransitionId)> {
    let mut cand = stg.clone();
    let sig = cand.add_signal(name, SignalKind::Internal).ok()?;
    let not_input = |g: &Stg, t: TransitionId| !g.is_input_transition(t);
    let rise = insert_series_transition(&mut cand, tx, sig, Polarity::Rise, not_input).ok()?;
    let fall = insert_series_transition(&mut cand, ty, sig, Polarity::Fall, not_input).ok()?;
    Some((cand, rise, fall))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complexgate::synthesize_complex_gates;
    use crate::verify::verify_against_sg;
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

    /// Fully sequential LR handshake (the Q-module reshuffling of
    /// Table 1): one CSC conflict, resolvable by one state signal.
    const QMODULE: &str = "\
.model qmodule
.inputs li ri
.outputs lo ro
.graph
li+ ro+
ro+ ri+
ri+ ro-
ro- ri-
ri- lo+
lo+ li-
li- lo-
lo- li+
.marking { <lo-,li+> }
.end
";

    #[test]
    fn qmodule_resolved_with_one_signal() {
        let stg = parse_g(QMODULE).unwrap();
        let sg0 = reshuffle_sg::build_state_graph(&stg).unwrap();
        assert!(analyze_csc(&sg0).num_csc_conflicts() > 0);
        let res = resolve_csc(&stg, &CscOptions::default()).unwrap();
        assert_eq!(res.inserted.len(), 1);
        assert_eq!(analyze_csc(&res.sg).num_csc_conflicts(), 0);
        assert!(res.tried > 0, "search effort not reported");
        // The resolved graph must synthesize and verify.
        let imp = synthesize_complex_gates(&res.sg).unwrap();
        verify_against_sg(&res.sg, &imp.netlist).unwrap();
    }

    #[test]
    fn fig1_conflict_is_unresolvable_by_insertion() {
        // The conflicting states of Fig. 1 are separated by input-only
        // paths (Req-, Req+), so no interface-preserving insertion can
        // distinguish them; the search must fail cleanly.
        let stg = parse_g(FIG1).unwrap();
        let e = resolve_csc(&stg, &CscOptions::default()).unwrap_err();
        assert!(matches!(
            e,
            SynthError::CscResolutionFailed { inserted: 0, .. }
        ));
    }

    #[test]
    fn conflict_free_is_identity() {
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
        let stg = parse_g(src).unwrap();
        let res = resolve_csc(&stg, &CscOptions::default()).unwrap();
        assert!(res.inserted.is_empty());
        assert_eq!(res.sg.num_states(), 4);
        assert_eq!(res.tried, 0, "conflict-free input must not search");
    }

    #[test]
    fn threaded_analysis_matches_fresh_resolution() {
        // resolve_csc_from must be exactly resolve_csc_analyzed on the
        // shared analysis — same insertions, isomorphic result.
        let stg = parse_g(QMODULE).unwrap();
        let sg1 = reshuffle_sg::build_state_graph(&stg).unwrap();
        let sg2 = sg1.clone();
        let analysis = analyze_csc(&sg1);
        let a = resolve_csc_from(&stg, sg1, &CscOptions::default()).unwrap();
        let b = resolve_csc_analyzed(&stg, sg2, &analysis, &CscOptions::default()).unwrap();
        assert_eq!(a.inserted, b.inserted);
        assert_eq!(a.sg.fingerprint(), b.sg.fingerprint());
    }

    #[test]
    fn resolver_consumes_the_threaded_analysis() {
        // Handing the resolver an (incorrect) conflict-free report for a
        // conflicted graph must short-circuit the search: this pins that
        // the entry analysis is taken from the caller, not recomputed —
        // i.e. `analyze_csc` runs once per graph across the pipeline.
        let stg = parse_g(QMODULE).unwrap();
        let sg = reshuffle_sg::build_state_graph(&stg).unwrap();
        assert!(analyze_csc(&sg).num_csc_conflicts() > 0);
        let fake = CscReport::default();
        let r = resolve_csc_analyzed(&stg, sg, &fake, &CscOptions::default()).unwrap();
        assert!(r.inserted.is_empty(), "resolver re-ran the analysis");
    }

    #[test]
    fn budget_zero_fails_on_conflicts() {
        let stg = parse_g(FIG1).unwrap();
        let e = resolve_csc(
            &stg,
            &CscOptions {
                max_signals: 0,
                rank_pool: 4,
            },
        )
        .unwrap_err();
        assert!(matches!(e, SynthError::CscResolutionFailed { .. }));
    }
}
