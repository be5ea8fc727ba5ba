//! Concurrency reduction of STGs (DAC 1999, Sec. 4).
//!
//! Reducing concurrency — serializing transitions that the
//! specification allows in parallel — shrinks the state graph, often
//! removes CSC conflicts without extra state signals, and trades cycle
//! time for logic. The search enumerates serializing moves from the
//! concurrency relation of [`reshuffle_sg::conc`], applies each as a
//! structural STG rewrite (an ordering place `from -> p -> to`,
//! [`reshuffle_petri::structural::insert_causal_place`]), re-derives the
//! state graph incrementally as the product of the old graph with the
//! new place ([`reshuffle_sg::restrict`]), and ranks candidates by
//! remaining CSC conflicts, then the literal estimate of
//! [`reshuffle_synth::literal_estimate`], then the timed cycle metric of
//! `reshuffle-timing` — optionally under a hard cycle-time bound.
//!
//! Moves that would delay an input transition, deadlock the system,
//! stop an event from ever firing, or break speed independence are
//! discarded; consistency is preserved by construction (the rewrite
//! only restricts the language, and state codes carry over). Mirror
//! moves under a signal automorphism of the specification (symmetric
//! fork/join branches, interchangeable channels) are dominated and
//! pruned before scoring — see [`Reduction::pruned`].

#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

use reshuffle_petri::structural::{insert_causal_place, map_transition, signal_automorphisms};
use reshuffle_petri::{Stg, TransitionId};
use reshuffle_sg::conc::concurrent_pairs;
use reshuffle_sg::csc::analyze_csc;
use reshuffle_sg::props::{all_events_fire, speed_independence};
use reshuffle_sg::restrict::restrict_with_place;
use reshuffle_sg::{build_state_graph, EventId, SgError, StateGraph};
use reshuffle_synth::literal_estimate;
use reshuffle_timing::{simulate, DelayModel, SimOptions, TimingError};

/// Errors from concurrency reduction.
#[derive(Debug, Clone, PartialEq)]
pub enum ReduceError {
    /// The input STG has no state graph (inconsistent, unsafe, …).
    Sg(SgError),
    /// The input STG has no periodic timed behaviour to bound.
    Timing(TimingError),
    /// No reduction satisfies the constraints (e.g. the cycle-time
    /// bound excludes the specification and every candidate).
    NoFeasibleReduction,
    /// A cycle-metric delay ([`ReduceOptions::input_delay`] or
    /// [`ReduceOptions::gate_delay`]) is not a multiple of 0.5 between
    /// 0 and [`MAX_DELAY`] (NaN and infinity included).
    InvalidDelay {
        /// The offending option's name.
        option: &'static str,
        /// Its value.
        value: f64,
    },
}

impl fmt::Display for ReduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReduceError::Sg(e) => write!(f, "concurrency reduction: {e}"),
            ReduceError::Timing(e) => write!(f, "concurrency reduction: {e}"),
            ReduceError::NoFeasibleReduction => {
                write!(f, "no concurrency reduction satisfies the constraints")
            }
            ReduceError::InvalidDelay { option, value } => write!(
                f,
                "{option} = {value} is not a multiple of 0.5 between 0 and {MAX_DELAY}"
            ),
        }
    }
}

impl std::error::Error for ReduceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReduceError::Sg(e) => Some(e),
            ReduceError::Timing(e) => Some(e),
            ReduceError::NoFeasibleReduction | ReduceError::InvalidDelay { .. } => None,
        }
    }
}

impl From<SgError> for ReduceError {
    fn from(e: SgError) -> Self {
        ReduceError::Sg(e)
    }
}

impl From<TimingError> for ReduceError {
    fn from(e: TimingError) -> Self {
        ReduceError::Timing(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, ReduceError>;

/// Largest cycle-metric delay, in time units. The paper's delays are 1
/// to 3 units. The simulator counts 2 ticks per unit over at most
/// `SimOptions::default().max_firings` (200,000) firings, so its clock
/// stays below 4·10^11 ticks: far from `u64` overflow, and exact in
/// `f64`.
pub const MAX_DELAY: f64 = 1e6;

/// Constraints and budgets for the reduction search.
#[derive(Debug, Clone)]
pub struct ReduceOptions {
    /// Upper bound on the steady-state cycle time of the reduced STG
    /// (`None` = unconstrained, minimize conflicts and literals only).
    pub max_cycle_time: Option<f64>,
    /// Maximum number of serializing moves to apply.
    pub max_moves: usize,
    /// Maximum number of best-first node expansions (bounds the search).
    pub max_expansions: usize,
    /// Delay charged to input events by the cycle metric (Table 1/2
    /// model: 2.0). Like `gate_delay`, a multiple of 0.5 in
    /// `0..=`[`MAX_DELAY`].
    pub input_delay: f64,
    /// Delay charged to non-input events by the cycle metric (1.0).
    pub gate_delay: f64,
}

impl Default for ReduceOptions {
    fn default() -> Self {
        ReduceOptions {
            max_cycle_time: None,
            max_moves: 16,
            max_expansions: 128,
            input_delay: 2.0,
            gate_delay: 1.0,
        }
    }
}

/// One accepted serializing move on the winning path, with the
/// statistics of the specification *after* the move — the `tables
/// --moves` report renders these as before→after deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct MoveStep {
    /// The move, as a `from -> to` string.
    pub label: String,
    /// Literal estimate after the move.
    pub literals: u32,
    /// Steady-state cycle time after the move.
    pub cycle: f64,
    /// Remaining CSC conflicts after the move.
    pub csc_conflicts: usize,
}

/// A concurrency-reduced refinement of the input STG.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The reduced STG (the input STG if no move improved it).
    pub stg: Stg,
    /// Its state graph, re-derived incrementally move by move.
    pub sg: StateGraph,
    /// The winning path: every serializing move applied, in order, with
    /// its label and the statistics of the specification after it.
    pub steps: Vec<MoveStep>,
    /// Literal estimate of the reduced specification.
    pub literals: u32,
    /// Steady-state cycle time of the reduced specification under the
    /// options' delay model.
    pub cycle: f64,
    /// Remaining CSC conflicts of the reduced specification.
    pub csc_conflicts: usize,
    /// Candidate moves discarded by symmetry dominance: a move whose
    /// mirror image under a signal automorphism of the current STG was
    /// also a candidate with a lexicographically smaller label. Mirrors
    /// score identically, so re-scoring them only burns search budget.
    pub pruned: usize,
    /// Best-first nodes expanded before the search stopped.
    pub expansions: usize,
    /// Candidate moves scored (state graph re-derived and evaluated).
    pub scored: usize,
}

impl Reduction {
    /// The labels of the applied moves, in order (`from -> to` strings).
    pub fn move_labels(&self) -> impl Iterator<Item = &str> {
        self.steps.iter().map(|s| s.label.as_str())
    }
}

/// Search priority: (CSC conflicts, literals, cycle-time bits, moves).
type Score = (usize, u32, u64, usize);

/// One node of the best-first search.
struct Node {
    stg: Stg,
    sg: StateGraph,
    moves: Vec<String>,
    parent: Option<usize>,
    conflicts: usize,
    literals: u32,
    cycle: f64,
}

impl Node {
    /// Lexicographic search priority: dissolve CSC conflicts first, then
    /// minimize literals, then cycle time, then prefer fewer moves. The
    /// cycle is non-negative, so its bit pattern orders like the value.
    fn score(&self) -> Score {
        (
            self.conflicts,
            self.literals,
            self.cycle.to_bits(),
            self.moves.len(),
        )
    }
}

/// Searches for a concurrency reduction of `stg` that minimizes first
/// the number of CSC conflicts, then the literal estimate, subject to
/// `opts`. Returns a zero-move [`Reduction`] when no serializing move
/// improves on the specification.
///
/// # Worked example
///
/// The mirror of the paper's Fig. 1 controller — `Req` driven by the
/// circuit, `Ack` by the environment — allows `Req+` concurrent with
/// `Ack-`. Its five-state graph binary-codes two states identically
/// (`11`), one enabling the output edge `Req-` and one not: a CSC
/// conflict that state-signal insertion cannot fix (the conflicting
/// states are separated by input events only). Serializing `Req+` after
/// `Ack-` removes the offending interleaving instead: four states, all
/// codes distinct, and the single output reduces to an inverter
/// (`Req' = !Ack`, one literal) — no state signal inserted.
///
/// ```
/// use reshuffle_petri::parse_g;
/// use reshuffle_reduce::{reduce_concurrency, ReduceOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stg = parse_g(
///     ".model mfig1\n.inputs Ack\n.outputs Req\n.graph\n\
///      Ack+ Req-\nReq- Req+ Ack-\nAck- Ack+\nReq+ Ack+\n\
///      .marking { <Req+,Ack+> <Ack-,Ack+> }\n.end\n",
/// )?;
/// let red = reduce_concurrency(&stg, &ReduceOptions::default())?;
/// assert_eq!(red.move_labels().collect::<Vec<_>>(), ["Ack- -> Req+"]);
/// assert_eq!(red.sg.num_states(), 4);
/// assert_eq!(red.csc_conflicts, 0);
/// assert_eq!(red.literals, 1);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`ReduceError::Sg`] / [`ReduceError::Timing`] if the input STG
///   itself has no state graph or no periodic behaviour;
/// * [`ReduceError::NoFeasibleReduction`] if `opts.max_cycle_time`
///   excludes the specification and every candidate reduction;
/// * [`ReduceError::InvalidDelay`] if a cycle-metric delay is off the
///   half-unit grid, negative, above [`MAX_DELAY`] or not finite.
pub fn reduce_concurrency(stg: &Stg, opts: &ReduceOptions) -> Result<Reduction> {
    let sg = build_state_graph(stg)?;
    reduce_concurrency_from(stg, sg, opts)
}

/// [`reduce_concurrency`] for callers that already built the
/// specification's state graph (`sg` must be the state graph of `stg`);
/// avoids rebuilding the most expensive artifact.
///
/// # Errors
///
/// See [`reduce_concurrency`].
pub fn reduce_concurrency_from(
    stg: &Stg,
    sg: StateGraph,
    opts: &ReduceOptions,
) -> Result<Reduction> {
    check_delay("input_delay", opts.input_delay)?;
    check_delay("gate_delay", opts.gate_delay)?;
    let (conflicts, literals, cycle) = evaluate(stg, &sg, opts)?;
    let root = Node {
        stg: stg.clone(),
        sg,
        moves: Vec::new(),
        parent: None,
        conflicts,
        literals,
        cycle,
    };

    // (`Option::is_none_or` would read better but postdates the 1.75 MSRV.)
    let feasible = |n: &Node| match opts.max_cycle_time {
        None => true,
        Some(b) => n.cycle <= b,
    };
    let mut visited: HashSet<u64> = HashSet::new();
    visited.insert(root.sg.fingerprint());
    let mut best: Option<usize> = feasible(&root).then_some(0);
    let mut nodes: Vec<Node> = vec![root];
    // Min-heap on (score, node id); the id breaks ties deterministically.
    let mut heap: BinaryHeap<Reverse<(Score, usize)>> = BinaryHeap::new();
    heap.push(Reverse((nodes[0].score(), 0)));

    // Serializing places only ever break symmetry, so an asymmetric
    // root spec stays asymmetric along every path — skip the per-node
    // automorphism brute force entirely in that (common) case.
    let maybe_symmetric = !signal_automorphisms(stg).is_empty();

    let mut expansions = 0usize;
    let mut pruned_total = 0usize;
    let mut scored = 0usize;
    while let Some(Reverse((_, id))) = heap.pop() {
        if expansions >= opts.max_expansions {
            break;
        }
        if nodes[id].moves.len() >= opts.max_moves {
            continue;
        }
        expansions += 1;
        let (candidates, pruned) = candidate_moves(&nodes[id], maybe_symmetric);
        pruned_total += pruned;
        for (stg2, sg2, label) in candidates {
            if !visited.insert(sg2.fingerprint()) {
                continue;
            }
            scored += 1;
            let Ok((conflicts, literals, cycle)) = evaluate(&stg2, &sg2, opts) else {
                continue; // e.g. the move deadlocks the timed simulation
            };
            if matches!(opts.max_cycle_time, Some(b) if cycle > b) {
                continue; // the bound prunes this branch
            }
            let mut moves = nodes[id].moves.clone();
            moves.push(label);
            let node = Node {
                stg: stg2,
                sg: sg2,
                moves,
                parent: Some(id),
                conflicts,
                literals,
                cycle,
            };
            let nid = nodes.len();
            if !matches!(best, Some(b) if nodes[b].score() <= node.score()) {
                best = Some(nid);
            }
            heap.push(Reverse((node.score(), nid)));
            nodes.push(node);
        }
    }

    let Some(best) = best else {
        return Err(ReduceError::NoFeasibleReduction);
    };
    // Reconstruct the winning path for the per-move delta report.
    let mut steps = Vec::new();
    let mut cur = best;
    while let Some(parent) = nodes[cur].parent {
        steps.push(MoveStep {
            label: nodes[cur]
                .moves
                .last()
                .expect("non-root node carries its move")
                .clone(),
            literals: nodes[cur].literals,
            cycle: nodes[cur].cycle,
            csc_conflicts: nodes[cur].conflicts,
        });
        cur = parent;
    }
    steps.reverse();
    let n = nodes.swap_remove(best);
    Ok(Reduction {
        stg: n.stg,
        sg: n.sg,
        steps,
        literals: n.literals,
        cycle: n.cycle,
        csc_conflicts: n.conflicts,
        pruned: pruned_total,
        expansions,
        scored,
    })
}

/// Accepts exactly the delays [`DelayModel::uniform`] can quantize (it
/// counts 2 ticks per unit, with the same rounding tolerance) up to
/// [`MAX_DELAY`]; anything else would panic there or wrap the
/// simulator's clock.
fn check_delay(option: &'static str, value: f64) -> Result<()> {
    let ticks = value * 2.0;
    if (0.0..=MAX_DELAY).contains(&value) && (ticks - ticks.round()).abs() < 1e-9 {
        Ok(())
    } else {
        Err(ReduceError::InvalidDelay { option, value })
    }
}

/// Scores one STG/state-graph pair: CSC conflicts, literal estimate and
/// steady-state cycle time under the options' delay model.
fn evaluate(
    stg: &Stg,
    sg: &StateGraph,
    opts: &ReduceOptions,
) -> std::result::Result<(usize, u32, f64), TimingError> {
    let conflicts = analyze_csc(sg).num_csc_conflicts();
    let literals = literal_estimate(sg);
    let delays = DelayModel::uniform(stg, opts.input_delay, opts.gate_delay);
    let run = simulate(stg, &delays, &SimOptions::default())?;
    Ok((conflicts, literals, run.period))
}

/// Enumerates the legal serializing moves applicable to `node`: for each
/// concurrent pair, each direction whose delayed edge is non-input and
/// single-instance, with the state graph re-derived incrementally and
/// the liveness/speed-independence gates applied. Mirror-image moves
/// under a signal automorphism of the node's STG are dominated — they
/// score identically by symmetry — so only the lexicographically least
/// representative of each orbit is kept; the second value counts the
/// discarded mirrors. `maybe_symmetric` is the root spec's verdict:
/// when it had no automorphisms, no derived node can have any either.
fn candidate_moves(node: &Node, maybe_symmetric: bool) -> (Vec<(Stg, StateGraph, String)>, usize) {
    let mut out: Vec<(Stg, StateGraph, String, TransitionId, TransitionId)> = Vec::new();
    for (a, b) in concurrent_pairs(&node.sg) {
        for (from, to) in [(a, b), (b, a)] {
            // Never delay the environment: the waiting edge must be an
            // output or internal signal.
            if !node.sg.signals()[to.signal.index()].kind.is_noninput() {
                continue;
            }
            // Serializing multi-instance edges needs per-instance case
            // analysis the paper does not require for its benchmarks.
            let &[from_t] = node.stg.transitions_of_edge(from).as_slice() else {
                continue;
            };
            let &[to_t] = node.stg.transitions_of_edge(to).as_slice() else {
                continue;
            };
            let Ok(sg2) = restrict_with_place(&node.sg, EventId(from_t.0), EventId(to_t.0)) else {
                continue; // the rewrite would make the net unsafe
            };
            // Liveness: no deadlock, every event still fires somewhere.
            if !sg2.deadlock_states().is_empty() || !all_events_fire(&sg2) {
                continue;
            }
            if !speed_independence(&sg2).is_speed_independent() {
                continue;
            }
            let mut stg2 = node.stg.clone();
            if insert_causal_place(&mut stg2, from_t, to_t).is_err() {
                continue;
            }
            let label = format!(
                "{} -> {}",
                node.stg.transition_name(from_t),
                node.stg.transition_name(to_t)
            );
            out.push((stg2, sg2, label, from_t, to_t));
        }
    }

    // Symmetry dominance: keep only orbit-minimal labels.
    let mut pruned = 0usize;
    let autos = if maybe_symmetric {
        signal_automorphisms(&node.stg)
    } else {
        Vec::new()
    };
    if !autos.is_empty() {
        let labels: HashSet<String> = out.iter().map(|(_, _, l, _, _)| l.clone()).collect();
        out.retain(|(_, _, label, from_t, to_t)| {
            for perm in &autos {
                let (Some(mf), Some(mt)) = (
                    map_transition(&node.stg, *from_t, perm),
                    map_transition(&node.stg, *to_t, perm),
                ) else {
                    continue;
                };
                let mirror = format!(
                    "{} -> {}",
                    node.stg.transition_name(mf),
                    node.stg.transition_name(mt)
                );
                if labels.contains(&mirror) && mirror.as_str() < label.as_str() {
                    pruned += 1;
                    return false;
                }
            }
            true
        });
    }
    (
        out.into_iter()
            .map(|(stg, sg, label, _, _)| (stg, sg, label))
            .collect(),
        pruned,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshuffle_petri::parse_g;

    const MFIG1: &str = "\
.model mfig1
.inputs Ack
.outputs Req
.graph
Ack+ Req-
Req- Req+ Ack-
Ack- Ack+
Req+ Ack+
.marking { <Req+,Ack+> <Ack-,Ack+> }
.end
";

    const TOGGLE: &str = "\
.model t
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
    fn mfig1_conflict_dissolved_without_state_signals() {
        let stg = parse_g(MFIG1).unwrap();
        let red = reduce_concurrency(&stg, &ReduceOptions::default()).unwrap();
        assert_eq!(red.steps.len(), 1);
        assert_eq!(red.csc_conflicts, 0);
        assert_eq!(red.sg.num_states(), 4);
        // The reduced STG rebuilds to the incrementally-derived graph.
        let rebuilt = build_state_graph(&red.stg).unwrap();
        assert_eq!(rebuilt, red.sg);
        // The winning path is recorded step by step, and mfig1 has no
        // symmetric moves to prune.
        assert_eq!(
            red.steps,
            vec![MoveStep {
                label: "Ack- -> Req+".to_string(),
                literals: 1,
                cycle: 6.0,
                csc_conflicts: 0,
            }]
        );
        assert_eq!(red.pruned, 0);
        // The search did real work and reported it.
        assert!(red.expansions > 0);
        assert!(red.scored > 0);
    }

    #[test]
    fn delays_off_the_tick_grid_are_errors_not_panics() {
        let stg = parse_g(MFIG1).unwrap();
        let bad = [
            ("input_delay", 0.3, 1.0),
            ("gate_delay", 2.0, f64::INFINITY),
            ("input_delay", f64::NAN, 1.0),
            ("input_delay", 1e300, 1.0),
            ("gate_delay", 2.0, -1.0),
        ];
        for (option, input_delay, gate_delay) in bad {
            let opts = ReduceOptions {
                input_delay,
                gate_delay,
                ..Default::default()
            };
            match reduce_concurrency(&stg, &opts) {
                Err(e @ ReduceError::InvalidDelay { option: o, .. }) => {
                    assert_eq!(o, option);
                    assert!(e.to_string().contains(option), "{e}");
                }
                other => panic!("{input_delay}/{gate_delay}: {other:?}"),
            }
        }
        // The half-unit grid (the PAR model's 1.5) and the bound pass.
        for (input_delay, gate_delay) in [(1.5, 0.5), (MAX_DELAY, 0.0)] {
            let opts = ReduceOptions {
                input_delay,
                gate_delay,
                ..Default::default()
            };
            assert!(reduce_concurrency(&stg, &opts).is_ok(), "{input_delay}");
        }
    }

    /// Fork/join with two symmetric request/ack branches: every move on
    /// branch 1 has a mirror on branch 2.
    const SYMPAR: &str = "\
.model sympar
.inputs go a1 a2
.outputs r1 r2
.graph
go+ r1+ r2+
r1+ a1+
r2+ a2+
a1+ go-
a2+ go-
go- r1- r2-
r1- a1-
r2- a2-
a1- go+
a2- go+
.marking { <a1-,go+> <a2-,go+> }
.end
";

    #[test]
    fn symmetric_moves_are_pruned() {
        let stg = parse_g(SYMPAR).unwrap();
        let red = reduce_concurrency(&stg, &ReduceOptions::default()).unwrap();
        // The root's candidate set is mirror-symmetric under the 1<->2
        // branch swap, so half of it is dominance-pruned (deeper nodes
        // have broken symmetry and prune nothing).
        assert!(red.pruned > 0, "no mirrors pruned");
        // Pruning must not change the outcome quality: the winner's
        // moves all live on the lexicographically-least branch.
        for m in red.move_labels() {
            assert!(!m.starts_with("a2") && !m.starts_with("r2"), "{m}");
        }
    }

    #[test]
    fn sequential_spec_reduces_to_itself() {
        let stg = parse_g(TOGGLE).unwrap();
        let red = reduce_concurrency(&stg, &ReduceOptions::default()).unwrap();
        assert!(red.steps.is_empty());
        assert_eq!(red.sg.num_states(), 4);
        assert_eq!(red.cycle, 6.0);
    }

    #[test]
    fn cycle_bound_prunes_everything() {
        // The toggle's cycle is 6.0; a bound below that excludes even
        // the unreduced specification.
        let stg = parse_g(TOGGLE).unwrap();
        let opts = ReduceOptions {
            max_cycle_time: Some(1.0),
            ..Default::default()
        };
        let e = reduce_concurrency(&stg, &opts).unwrap_err();
        assert_eq!(e, ReduceError::NoFeasibleReduction);
    }

    #[test]
    fn cycle_bound_keeps_the_spec_when_moves_are_too_slow() {
        // mfig1's spec cycle is 5.0 and its only useful move costs 6.0:
        // bounding at 5.0 forces the zero-move reduction.
        let stg = parse_g(MFIG1).unwrap();
        let opts = ReduceOptions {
            max_cycle_time: Some(5.0),
            ..Default::default()
        };
        let red = reduce_concurrency(&stg, &opts).unwrap();
        assert!(red.steps.is_empty());
        assert_eq!(red.csc_conflicts, 1);
        assert_eq!(red.cycle, 5.0);
    }

    #[test]
    fn move_budget_zero_is_identity() {
        let stg = parse_g(MFIG1).unwrap();
        let opts = ReduceOptions {
            max_moves: 0,
            ..Default::default()
        };
        let red = reduce_concurrency(&stg, &opts).unwrap();
        assert!(red.steps.is_empty());
        assert_eq!(red.csc_conflicts, 1);
    }

    #[test]
    fn inconsistent_input_reports_sg_error() {
        let bad = parse_g(
            ".model bad\n.inputs a\n.graph\na+ a+/2\na+/2 a+\n\
             .marking { <a+/2,a+> }\n.end\n",
        )
        .unwrap();
        let e = reduce_concurrency(&bad, &ReduceOptions::default()).unwrap_err();
        assert!(matches!(e, ReduceError::Sg(_)), "{e:?}");
    }
}
