//! Reachability analysis on 1-safe nets.
//!
//! [`ReachabilityGraph`] is the raw marking graph: nodes are markings,
//! arcs are transition firings. The state-graph crate layers signal
//! encodings on top of this; here we provide the plain exploration plus
//! the queries shared by every client (deadlocks, liveness of individual
//! transitions).
//!
//! The exploration is one breadth-first loop over flat arrays that
//! allocates nothing per firing:
//!
//! * every marking is stored once, as a fixed number of bitset words
//!   per node in one arena;
//! * an open-addressing table of `u32` node ids, indexed by a seeded
//!   multiplicative hash of those words, finds a marking's node;
//! * each transition's preset and postset are sparse `(word, bits)`
//!   masks, one entry per marking word they touch, so enabling is a
//!   mask test and firing two mask updates;
//! * arcs are written once in compressed sparse row (CSR) form:
//!   per-node offsets, then the fired transitions and the targets in
//!   two parallel arrays, which the state-graph build can take over.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use crate::error::{PetriError, Result};
use crate::ids::{PlaceId, TransitionId};
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
    num_places: usize,
    /// Bitset words per marking.
    words: usize,
    /// The marking arena: node `s` holds `markings[s * words..][..words]`.
    markings: Vec<u64>,
    /// Node `s`'s arcs are entries `offsets[s]..offsets[s + 1]` of
    /// `fired` and `targets`.
    offsets: Vec<u32>,
    fired: Vec<TransitionId>,
    targets: Vec<u32>,
    peak_frontier: usize,
}

impl ReachabilityGraph {
    /// Explores the reachability graph of `net` from `initial`
    /// breadth-first, numbering markings as it finds them.
    ///
    /// # Errors
    ///
    /// * [`PetriError::UnsafePlace`] for the first firing, in
    ///   breadth-first order, that violates 1-safeness (naming the first
    ///   marked place in postset order);
    /// * [`PetriError::StateBudgetExceeded`] if more than `budget`
    ///   markings are reachable;
    /// * [`PetriError::Structural`] if the net has source transitions.
    pub fn explore(net: &PetriNet, initial: &Marking, budget: usize) -> Result<Self> {
        net.check_no_source_transitions()?;
        if budget == 0 {
            return Err(PetriError::StateBudgetExceeded(0));
        }
        let words = initial.words().len();
        let pre = Masks::new(net, PetriNet::preset);
        let post = Masks::new(net, PetriNet::postset);
        let mut g = ReachabilityGraph {
            num_places: initial.num_places(),
            words,
            markings: initial.words().to_vec(),
            offsets: vec![0],
            fired: Vec::new(),
            targets: Vec::new(),
            peak_frontier: 1,
        };
        let mut index = Index::new(&g.markings, words);
        // Buffers reused for every head node: its marking, its enabled
        // transitions, their successor markings and first lookups.
        let mut cur = vec![0u64; words];
        let mut enabled = vec![TransitionId(0); net.num_transitions()];
        let (mut succ, mut found) = (Vec::new(), Vec::new());
        let (mut head, mut nodes, mut level_end) = (0, 1, 1);
        while head < nodes {
            if head == level_end {
                level_end = nodes;
                g.peak_frontier = g.peak_frontier.max(level_end - head);
            }
            cur.copy_from_slice(&g.markings[head * words..][..words]);
            // Test every transition without branching on the outcome.
            let mut k = 0;
            for t in 0..enabled.len() as u32 {
                let on = pre
                    .of(TransitionId(t))
                    .iter()
                    .fold(true, |on, &(w, bits)| on & (cur[w] & bits == bits));
                enabled[k] = TransitionId(t);
                k += usize::from(on);
            }
            succ.clear();
            let mut clashed = None;
            for &t in &enabled[..k] {
                let at = succ.len();
                succ.extend_from_slice(&cur);
                let next = &mut succ[at..];
                for &(w, bits) in pre.of(t) {
                    next[w] &= !bits;
                }
                if post.of(t).iter().any(|&(w, bits)| next[w] & bits != 0) {
                    succ.truncate(at);
                    clashed = Some(t);
                    break;
                }
                for &(w, bits) in post.of(t) {
                    next[w] |= bits;
                }
            }
            // Look every successor up before inserting any: the lookups
            // are independent, so their cache misses overlap.
            found.clear();
            found.extend(succ.chunks_exact(words).map(|m| index.find(&g.markings, m)));
            for ((&t, next), &hit) in enabled.iter().zip(succ.chunks_exact(words)).zip(&found) {
                let target = match hit.or_else(|_| index.find(&g.markings, next)) {
                    Ok(node) => node,
                    Err(slot) => {
                        if nodes == budget {
                            return Err(PetriError::StateBudgetExceeded(budget));
                        }
                        g.markings.extend_from_slice(next);
                        index.insert(slot, nodes, &g.markings);
                        nodes += 1;
                        nodes as u32 - 1
                    }
                };
                g.fired.push(t);
                g.targets.push(target);
            }
            if let Some(t) = clashed {
                return Err(clash(net, &cur, t));
            }
            g.offsets.push(g.fired.len() as u32);
            head += 1;
        }
        Ok(g)
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
        self.offsets.len() - 1
    }

    /// True if the graph has no nodes (never the case after `explore`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.fired.len()
    }

    /// The marking of node `s`.
    pub fn marking(&self, s: u32) -> Marking {
        let w = self.words;
        Marking::from_words(self.num_places, &self.markings[s as usize * w..][..w])
    }

    /// The outgoing arcs of node `s`, as `(fired transition, successor
    /// node)` pairs in ascending transition order.
    pub fn successors(&self, s: u32) -> impl ExactSizeIterator<Item = (TransitionId, u32)> + '_ {
        let arcs = self.offsets[s as usize] as usize..self.offsets[s as usize + 1] as usize;
        let fired = self.fired[arcs.clone()].iter().copied();
        fired.zip(self.targets[arcs].iter().copied())
    }

    /// The arcs in CSR form, by value: per-node offsets (one more than
    /// nodes), then the fired transitions and the successor nodes.
    pub fn into_arcs(self) -> (Vec<u32>, Vec<TransitionId>, Vec<u32>) {
        (self.offsets, self.fired, self.targets)
    }

    /// Nodes with no outgoing arcs.
    pub fn deadlocks(&self) -> Vec<u32> {
        (0..self.len() as u32)
            .filter(|&s| self.offsets[s as usize] == self.offsets[s as usize + 1])
            .collect()
    }

    /// True if every transition of `net` fires somewhere in the graph.
    pub fn all_transitions_fire(&self, net: &PetriNet) -> bool {
        let mut fired = vec![false; net.num_transitions()];
        for &t in &self.fired {
            fired[t.index()] = true;
        }
        fired.into_iter().all(|b| b)
    }
}

/// The unsafe firing of enabled transition `t` in marking `m`: the first
/// place of its postset, in postset order, that still holds a token
/// once `t` has consumed its preset.
fn clash(net: &PetriNet, m: &[u64], t: TransitionId) -> PetriError {
    let marked = |p: &&PlaceId| m[p.index() / 64] >> (p.index() % 64) & 1 == 1;
    let place = *net
        .postset(t)
        .iter()
        .filter(marked)
        .find(|p| !net.preset(t).contains(p))
        .expect("the postset mask clashed");
    PetriError::UnsafePlace {
        place,
        transition: t,
    }
}

/// Per-transition place sets as sparse bitset masks: transition `t`'s
/// are `entries[at[t]..at[t + 1]]`, one `(word, bits)` entry per
/// marking word its places touch. That is at most one entry per arc, so
/// the masks take space linear in the net.
struct Masks {
    at: Vec<u32>,
    entries: Vec<(usize, u64)>,
}

impl Masks {
    fn new(net: &PetriNet, places: fn(&PetriNet, TransitionId) -> &[PlaceId]) -> Masks {
        let mut at = vec![0];
        let mut entries: Vec<(usize, u64)> = Vec::new();
        let mut sorted = Vec::new();
        for t in net.transitions() {
            let start = entries.len();
            sorted.clear();
            sorted.extend(places(net, t).iter().map(|p| p.index()));
            sorted.sort_unstable();
            for &p in &sorted {
                let (word, bit) = (p / 64, 1 << (p % 64));
                match entries[start..].last_mut() {
                    Some((w, bits)) if *w == word => *bits |= bit,
                    _ => entries.push((word, bit)),
                }
            }
            at.push(entries.len() as u32);
        }
        Masks { at, entries }
    }

    fn of(&self, t: TransitionId) -> &[(usize, u64)] {
        &self.entries[self.at[t.index()] as usize..self.at[t.index() + 1] as usize]
    }
}

/// An open-addressing table from markings to node ids: linear probing
/// over `u32` slots, at most half full, each node's home slot picked by
/// the top bits of its mixed hash.
struct Index {
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`.
    shift: u32,
    words: usize,
    /// The hash's random start: markings follow from input nets, and a
    /// fixed hash would let a crafted net pile its markings into one run
    /// of slots.
    seed: u64,
}

const EMPTY: u32 = u32::MAX;

/// The multiplier of the marking hash and of its final mix (2^64 over
/// the golden ratio, odd).
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

impl Index {
    /// A table holding node 0, the only marking of `arena`.
    fn new(arena: &[u64], words: usize) -> Index {
        let mut index = Index {
            slots: vec![EMPTY; 64],
            shift: 64 - 6,
            words,
            seed: RandomState::new().hash_one(0u64),
        };
        let Err(slot) = index.find(arena, arena) else {
            unreachable!("an empty table");
        };
        index.insert(slot, 0, arena);
        index
    }

    /// The home slot of marking `m`: the words are folded by a
    /// multiplicative hash, the fold is mixed once more (its own bits
    /// cluster), and the top bits pick the slot.
    fn home(&self, m: &[u64]) -> usize {
        let h = m
            .iter()
            .fold(self.seed, |h, &w| (h.rotate_left(5) ^ w).wrapping_mul(MIX));
        ((h ^ (h >> 32)).wrapping_mul(MIX) >> self.shift) as usize
    }

    /// The node of marking `m` in `arena`, or the free slot it hashes to.
    fn find(&self, arena: &[u64], m: &[u64]) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(m);
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                // Word by word: a short loop beats a `memcmp` call.
                node if arena[node as usize * self.words..]
                    .iter()
                    .zip(m)
                    .all(|(a, b)| a == b) =>
                {
                    return Ok(node)
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Puts `node`, the last marking of `arena`, into the free `slot`
    /// that [`Index::find`] returned, then doubles the table when it is
    /// more than half full.
    fn insert(&mut self, slot: usize, node: usize, arena: &[u64]) {
        self.slots[slot] = node as u32;
        let nodes = node + 1;
        if 2 * nodes <= self.slots.len() {
            return;
        }
        // The arena holds every marking: free the old slots first.
        let len = 2 * self.slots.len();
        self.slots = Vec::new();
        self.slots = vec![EMPTY; len];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (node, m) in arena.chunks_exact(self.words).enumerate() {
            let mut i = self.home(m);
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = node as u32;
        }
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
        let arcs: Vec<Vec<(TransitionId, u32)>> =
            (0..4).map(|s| g.successors(s).collect()).collect();
        assert_eq!(
            arcs,
            [
                vec![(a, 1), (b, 2)],
                vec![(a_back, 0), (b, 3)],
                vec![(a, 3), (b_back, 0)],
                vec![(a_back, 2), (b_back, 1)],
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
