//! The marking explorer that `ReachabilityGraph::explore` replaced,
//! kept as the reference: a `HashMap` from markings to nodes, a vector
//! of markings and one arc vector per node, each firing through
//! `Marking::fire`.

use std::collections::HashMap;

use reshuffle_petri::{Marking, PetriError, PetriNet, TransitionId};

/// A marking graph: markings and arcs by node, and the widest
/// breadth-first level.
pub struct MarkingGraph {
    pub markings: Vec<Marking>,
    pub succs: Vec<Vec<(TransitionId, u32)>>,
    pub peak_frontier: usize,
}

pub fn explore(
    net: &PetriNet,
    initial: &Marking,
    budget: usize,
) -> Result<MarkingGraph, PetriError> {
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
    Ok(MarkingGraph {
        markings,
        succs,
        peak_frontier,
    })
}
