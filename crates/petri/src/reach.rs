//! Reachability analysis on 1-safe nets.
//!
//! [`ReachabilityGraph`] is the raw marking graph: nodes are markings,
//! arcs are transition firings. The state-graph crate layers signal
//! encodings on top of this; here we provide the plain exploration plus
//! the queries shared by every client (deadlocks, safeness diagnosis,
//! liveness of individual transitions).

use std::collections::HashMap;

use crate::error::{PetriError, Result};
use crate::ids::TransitionId;
use crate::marking::Marking;
use crate::net::PetriNet;

/// Default cap on explored markings; generous for controller-sized nets.
pub const DEFAULT_STATE_BUDGET: usize = 1_000_000;

/// The reachability graph of a 1-safe net from a given initial marking.
///
/// Nodes are numbered canonically: first-in-first-out from the initial
/// marking (node 0), each node's successors in ascending transition
/// order. The state-graph build, fingerprints and cache keys all rely
/// on this numbering.
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    markings: Vec<Marking>,
    /// Outgoing arcs per node: `(fired transition, successor node)`.
    succs: Vec<Vec<(TransitionId, u32)>>,
    peak_frontier: usize,
}

impl ReachabilityGraph {
    /// Explores the reachability graph of `net` from `initial`
    /// breadth-first, numbering markings as it finds them.
    ///
    /// # Errors
    ///
    /// * [`PetriError::UnsafePlace`] for the first firing, in
    ///   breadth-first order, that violates 1-safeness;
    /// * [`PetriError::StateBudgetExceeded`] if more than `budget`
    ///   markings are reachable;
    /// * [`PetriError::Structural`] if the net has source transitions.
    pub fn explore(net: &PetriNet, initial: &Marking, budget: usize) -> Result<Self> {
        net.check_no_source_transitions()?;
        if budget == 0 {
            return Err(PetriError::StateBudgetExceeded(0));
        }
        let mut index = HashMap::from([(initial.clone(), 0u32)]);
        let mut markings = vec![initial.clone()];
        let mut succs: Vec<Vec<(TransitionId, u32)>> = Vec::new();
        let (mut level_end, mut peak_frontier) = (1, 1);
        while succs.len() < markings.len() {
            let head = succs.len();
            if head == level_end {
                level_end = markings.len();
                peak_frontier = peak_frontier.max(level_end - head);
            }
            let enabled = markings[head].enabled_transitions(net);
            let mut arcs = Vec::with_capacity(enabled.len());
            for t in enabled {
                let next = markings[head].fire(net, t)?;
                let target = match index.get(&next) {
                    Some(&node) => node,
                    None => {
                        if markings.len() == budget {
                            return Err(PetriError::StateBudgetExceeded(budget));
                        }
                        let node = markings.len() as u32;
                        index.insert(next.clone(), node);
                        markings.push(next);
                        node
                    }
                };
                arcs.push((t, target));
            }
            succs.push(arcs);
        }
        Ok(ReachabilityGraph {
            markings,
            succs,
            peak_frontier,
        })
    }

    /// [`ReachabilityGraph::explore`]; the thread count is ignored.
    #[doc(hidden)]
    pub fn explore_threads(
        net: &PetriNet,
        initial: &Marking,
        budget: usize,
        _threads: usize,
    ) -> Result<Self> {
        Self::explore(net, initial, budget)
    }

    /// Width of the widest breadth-first level (the initial marking
    /// alone is a level of width 1).
    pub fn peak_frontier(&self) -> usize {
        self.peak_frontier
    }

    /// Explores with the [default budget](DEFAULT_STATE_BUDGET).
    ///
    /// # Errors
    ///
    /// Same as [`ReachabilityGraph::explore`].
    pub fn explore_default(net: &PetriNet, initial: &Marking) -> Result<Self> {
        Self::explore(net, initial, DEFAULT_STATE_BUDGET)
    }

    /// Number of reachable markings.
    pub fn len(&self) -> usize {
        self.markings.len()
    }

    /// True if the graph has no nodes (never the case after `explore`).
    pub fn is_empty(&self) -> bool {
        self.markings.is_empty()
    }

    /// The marking of node `s`.
    pub fn marking(&self, s: u32) -> &Marking {
        &self.markings[s as usize]
    }

    /// The outgoing arcs of node `s`.
    pub fn successors(&self, s: u32) -> &[(TransitionId, u32)] {
        &self.succs[s as usize]
    }

    /// Nodes with no outgoing arcs.
    pub fn deadlocks(&self) -> Vec<u32> {
        (0..self.len() as u32)
            .filter(|&s| self.succs[s as usize].is_empty())
            .collect()
    }

    /// True if every transition of `net` fires somewhere in the graph.
    pub fn all_transitions_fire(&self, net: &PetriNet) -> bool {
        let mut fired = vec![false; net.num_transitions()];
        for arcs in &self.succs {
            for &(t, _) in arcs {
                fired[t.index()] = true;
            }
        }
        fired.into_iter().all(|b| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two concurrent toggles: 4 reachable markings forming a diamond.
    fn diamond() -> (PetriNet, Marking) {
        let mut n = PetriNet::new();
        let pa0 = n.add_place("pa0");
        let pa1 = n.add_place("pa1");
        let pb0 = n.add_place("pb0");
        let pb1 = n.add_place("pb1");
        let a = n.add_transition("a");
        let a_back = n.add_transition("a'");
        let b = n.add_transition("b");
        let b_back = n.add_transition("b'");
        n.add_arc_pt(pa0, a).unwrap();
        n.add_arc_tp(a, pa1).unwrap();
        n.add_arc_pt(pa1, a_back).unwrap();
        n.add_arc_tp(a_back, pa0).unwrap();
        n.add_arc_pt(pb0, b).unwrap();
        n.add_arc_tp(b, pb1).unwrap();
        n.add_arc_pt(pb1, b_back).unwrap();
        n.add_arc_tp(b_back, pb0).unwrap();
        let m0 = Marking::with_tokens(4, &[pa0, pb0]);
        (n, m0)
    }

    #[test]
    fn diamond_has_four_states() {
        let (n, m0) = diamond();
        let g = ReachabilityGraph::explore_default(&n, &m0).unwrap();
        assert_eq!(g.len(), 4);
        assert!(g.deadlocks().is_empty());
        assert!(g.all_transitions_fire(&n));
    }

    #[test]
    fn numbering_is_breadth_first_in_transition_order() {
        let (n, m0) = diamond();
        let g = ReachabilityGraph::explore_default(&n, &m0).unwrap();
        let [a, a_back, b, b_back] = [0, 1, 2, 3].map(TransitionId::from_index);
        let arcs: Vec<&[(TransitionId, u32)]> = (0..4).map(|s| g.successors(s)).collect();
        assert_eq!(
            arcs,
            [
                &[(a, 1), (b, 2)][..],
                &[(a_back, 0), (b, 3)],
                &[(a, 3), (b_back, 0)],
                &[(a_back, 2), (b_back, 1)],
            ]
        );
        assert_eq!(g.peak_frontier(), 2);
    }

    #[test]
    fn budget_is_enforced() {
        let (n, m0) = diamond();
        assert!(matches!(
            ReachabilityGraph::explore(&n, &m0, 2),
            Err(PetriError::StateBudgetExceeded(2))
        ));
        assert!(matches!(
            ReachabilityGraph::explore(&n, &m0, 0),
            Err(PetriError::StateBudgetExceeded(0))
        ));
        assert_eq!(ReachabilityGraph::explore(&n, &m0, 4).unwrap().len(), 4);
    }

    #[test]
    fn deadlock_detected() {
        let mut n = PetriNet::new();
        let p0 = n.add_place("p0");
        let p1 = n.add_place("p1");
        let a = n.add_transition("a");
        n.add_arc_pt(p0, a).unwrap();
        n.add_arc_tp(a, p1).unwrap();
        let m0 = Marking::with_tokens(2, &[p0]);
        let g = ReachabilityGraph::explore_default(&n, &m0).unwrap();
        assert_eq!(g.len(), 2);
        let dl = g.deadlocks();
        assert_eq!(dl.len(), 1);
        assert!(g.marking(dl[0]).contains(p1));
    }

    #[test]
    fn unsafe_net_rejected() {
        // Two producers into the same place with both sources marked.
        let mut n = PetriNet::new();
        let p0 = n.add_place("p0");
        let p1 = n.add_place("p1");
        let q = n.add_place("q");
        let a = n.add_transition("a");
        let b = n.add_transition("b");
        n.add_arc_pt(p0, a).unwrap();
        n.add_arc_tp(a, q).unwrap();
        n.add_arc_pt(p1, b).unwrap();
        n.add_arc_tp(b, q).unwrap();
        let m0 = Marking::with_tokens(3, &[p0, p1]);
        assert!(matches!(
            ReachabilityGraph::explore_default(&n, &m0),
            Err(PetriError::UnsafePlace { .. })
        ));
    }
}
