//! Plain place/transition nets with unit arc weights.
//!
//! The nets used for Signal Transition Graphs are ordinary Petri nets.
//! This module stores the bipartite flow relation in both directions so
//! that the token game, reachability analysis and structural transforms
//! are all cheap.

use crate::error::{PetriError, Result};
use crate::ids::{PlaceId, TransitionId};

/// A place/transition net with unit arc weights.
///
/// Places and transitions carry display names (used by the `.g` reader
/// and writer); the flow relation is kept as four adjacency lists so both
/// presets and postsets of both node kinds can be iterated directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PetriNet {
    place_names: Vec<String>,
    trans_names: Vec<String>,
    /// For each transition: places consumed (preset).
    trans_pre: Vec<Vec<PlaceId>>,
    /// For each transition: places produced (postset).
    trans_post: Vec<Vec<PlaceId>>,
    /// For each place: transitions producing into it.
    place_pre: Vec<Vec<TransitionId>>,
    /// For each place: transitions consuming from it.
    place_post: Vec<Vec<TransitionId>>,
}

impl PetriNet {
    /// Creates an empty net.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.place_names.len()
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.trans_names.len()
    }

    /// Adds a place with the given display name and returns its id.
    pub fn add_place(&mut self, name: impl Into<String>) -> PlaceId {
        let id = PlaceId::from_index(self.place_names.len());
        self.place_names.push(name.into());
        self.place_pre.push(Vec::new());
        self.place_post.push(Vec::new());
        id
    }

    /// Adds a transition with the given display name and returns its id.
    pub fn add_transition(&mut self, name: impl Into<String>) -> TransitionId {
        let id = TransitionId::from_index(self.trans_names.len());
        self.trans_names.push(name.into());
        self.trans_pre.push(Vec::new());
        self.trans_post.push(Vec::new());
        id
    }

    /// Adds an arc from a place to a transition (the transition consumes
    /// a token from the place).
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::DuplicateArc`] if the arc already exists.
    pub fn add_arc_pt(&mut self, p: PlaceId, t: TransitionId) -> Result<()> {
        if self.trans_pre[t.index()].contains(&p) {
            return Err(PetriError::DuplicateArc(format!("{p} -> {t}")));
        }
        self.trans_pre[t.index()].push(p);
        self.place_post[p.index()].push(t);
        Ok(())
    }

    /// Adds an arc from a transition to a place (the transition produces
    /// a token into the place).
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::DuplicateArc`] if the arc already exists.
    pub fn add_arc_tp(&mut self, t: TransitionId, p: PlaceId) -> Result<()> {
        if self.trans_post[t.index()].contains(&p) {
            return Err(PetriError::DuplicateArc(format!("{t} -> {p}")));
        }
        self.trans_post[t.index()].push(p);
        self.place_pre[p.index()].push(t);
        Ok(())
    }

    /// Removes the arc from `p` to `t` if present; returns whether it was.
    pub fn remove_arc_pt(&mut self, p: PlaceId, t: TransitionId) -> bool {
        let pre = &mut self.trans_pre[t.index()];
        if let Some(i) = pre.iter().position(|&x| x == p) {
            pre.remove(i);
            let post = &mut self.place_post[p.index()];
            let j = post.iter().position(|&x| x == t).expect("mirror arc");
            post.remove(j);
            true
        } else {
            false
        }
    }

    /// Removes the arc from `t` to `p` if present; returns whether it was.
    pub fn remove_arc_tp(&mut self, t: TransitionId, p: PlaceId) -> bool {
        let post = &mut self.trans_post[t.index()];
        if let Some(i) = post.iter().position(|&x| x == p) {
            post.remove(i);
            let pre = &mut self.place_pre[p.index()];
            let j = pre.iter().position(|&x| x == t).expect("mirror arc");
            pre.remove(j);
            true
        } else {
            false
        }
    }

    /// The places consumed by transition `t`.
    pub fn preset(&self, t: TransitionId) -> &[PlaceId] {
        &self.trans_pre[t.index()]
    }

    /// The places produced by transition `t`.
    pub fn postset(&self, t: TransitionId) -> &[PlaceId] {
        &self.trans_post[t.index()]
    }

    /// The transitions that produce into place `p`.
    pub fn producers(&self, p: PlaceId) -> &[TransitionId] {
        &self.place_pre[p.index()]
    }

    /// The transitions that consume from place `p`.
    pub fn consumers(&self, p: PlaceId) -> &[TransitionId] {
        &self.place_post[p.index()]
    }

    /// Display name of place `p`.
    pub fn place_name(&self, p: PlaceId) -> &str {
        &self.place_names[p.index()]
    }

    /// Display name of transition `t`.
    pub fn transition_name(&self, t: TransitionId) -> &str {
        &self.trans_names[t.index()]
    }

    /// Renames transition `t`.
    pub fn set_transition_name(&mut self, t: TransitionId, name: impl Into<String>) {
        self.trans_names[t.index()] = name.into();
    }

    /// Renames place `p`.
    pub fn set_place_name(&mut self, p: PlaceId, name: impl Into<String>) {
        self.place_names[p.index()] = name.into();
    }

    /// Iterates over all place ids.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> + '_ {
        (0..self.place_names.len()).map(PlaceId::from_index)
    }

    /// Iterates over all transition ids.
    pub fn transitions(&self) -> impl Iterator<Item = TransitionId> + '_ {
        (0..self.trans_names.len()).map(TransitionId::from_index)
    }

    /// Finds a place by display name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.place_names
            .iter()
            .position(|n| n == name)
            .map(PlaceId::from_index)
    }

    /// Finds a transition by display name.
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.trans_names
            .iter()
            .position(|n| n == name)
            .map(TransitionId::from_index)
    }

    /// True if a place has no producers and no consumers.
    pub fn is_isolated_place(&self, p: PlaceId) -> bool {
        self.place_pre[p.index()].is_empty() && self.place_post[p.index()].is_empty()
    }

    /// Checks simple well-formedness used before simulation: every
    /// transition has at least one input place (source transitions would
    /// make the net unbounded and are rejected).
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::Structural`] naming the offending transition.
    pub fn check_no_source_transitions(&self) -> Result<()> {
        for t in self.transitions() {
            if self.preset(t).is_empty() {
                return Err(PetriError::Structural(format!(
                    "transition {} ({t}) has an empty preset",
                    self.transition_name(t)
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_by_two() -> (PetriNet, PlaceId, PlaceId, TransitionId, TransitionId) {
        let mut n = PetriNet::new();
        let p0 = n.add_place("p0");
        let p1 = n.add_place("p1");
        let t0 = n.add_transition("a");
        let t1 = n.add_transition("b");
        n.add_arc_pt(p0, t0).unwrap();
        n.add_arc_tp(t0, p1).unwrap();
        n.add_arc_pt(p1, t1).unwrap();
        n.add_arc_tp(t1, p0).unwrap();
        (n, p0, p1, t0, t1)
    }

    #[test]
    fn build_and_query() {
        let (n, p0, p1, t0, t1) = two_by_two();
        assert_eq!(n.num_places(), 2);
        assert_eq!(n.num_transitions(), 2);
        assert_eq!(n.preset(t0), &[p0]);
        assert_eq!(n.postset(t0), &[p1]);
        assert_eq!(n.producers(p0), &[t1]);
        assert_eq!(n.consumers(p0), &[t0]);
        assert_eq!(n.place_name(p0), "p0");
        assert_eq!(n.transition_name(t1), "b");
    }

    #[test]
    fn duplicate_arcs_rejected() {
        let (mut n, p0, _, t0, _) = two_by_two();
        assert!(matches!(
            n.add_arc_pt(p0, t0),
            Err(PetriError::DuplicateArc(_))
        ));
    }

    #[test]
    fn remove_arcs() {
        let (mut n, p0, _, t0, _) = two_by_two();
        assert!(n.remove_arc_pt(p0, t0));
        assert!(!n.remove_arc_pt(p0, t0));
        assert!(n.preset(t0).is_empty());
        assert!(n.consumers(p0).is_empty());
    }

    #[test]
    fn lookup_by_name() {
        let (n, p0, _, _, t1) = two_by_two();
        assert_eq!(n.place_by_name("p0"), Some(p0));
        assert_eq!(n.transition_by_name("b"), Some(t1));
        assert_eq!(n.transition_by_name("zz"), None);
    }

    #[test]
    fn source_transition_detected() {
        let mut n = PetriNet::new();
        n.add_transition("orphan");
        assert!(n.check_no_source_transitions().is_err());
    }
}
