//! Pruning of enumerated reshufflings.
//!
//! A lattice point survives only if its serialized state graph is still
//! 1-safe (the incremental product construction rejects unsafe
//! rewrites), deadlock-free, live (every event still fires) and
//! speed-independent, and only if no earlier candidate was the same
//! graph (implied orderings collapse points) or a mirror image of it
//! under a signal automorphism of the base expansion (symmetric
//! channels are dominated: a reshuffling and its mirror synthesize to
//! relabelled copies of the same circuit).
//!
//! A point stays a state graph through all of that ([`realize`]); only
//! a survivor gets its STG ([`reshuffling`]).
//!
//! Realization shares work across lattice points through a
//! [`PrefixCache`]: points are constraint *sequences* in a fixed
//! canonical order (RTZ transitions in `BaseExpansion::rtz` order, each
//! one's anchors in its anchor-list order), so any two points agreeing
//! on their first `k` constraints pass through the same intermediate
//! state graph. The cache memoizes every intermediate restriction
//! product — including failed ones, which prune all extensions of the
//! failing prefix without re-running the product.

use std::collections::HashMap;

use reshuffle_petri::structural::map_transition;
use reshuffle_petri::{SignalId, Stg, TransitionId};
use reshuffle_sg::restrict::restrict_with_place;
use reshuffle_sg::{EventId, StateGraph};

use crate::expand::BaseExpansion;
use crate::Reshuffling;

/// Cap on memoized prefixes: beyond it the cache stops inserting (but
/// keeps serving hits), bounding memory on degenerate lattices.
const MAX_PREFIX_ENTRIES: usize = 4096;

/// Shared-prefix memo over lattice constraint sequences: maps a
/// canonical constraint prefix to the state graph after restricting the
/// base by exactly those constraints, or `None` when the restriction
/// failed (the ordering place went unsafe), which prunes every
/// extension of that prefix for free.
#[derive(Debug, Default)]
pub(crate) struct PrefixCache {
    memo: HashMap<Vec<(TransitionId, TransitionId)>, Option<StateGraph>>,
    /// Restriction products served from the memo instead of recomputed.
    pub hits: u64,
    /// Restriction products actually executed.
    pub products: u64,
}

impl PrefixCache {
    fn insert(&mut self, key: &[(TransitionId, TransitionId)], sg: Option<StateGraph>) {
        if self.memo.len() < MAX_PREFIX_ENTRIES {
            self.memo.insert(key.to_vec(), sg);
        }
    }
}

/// Derives the state graph of one lattice point's constraints over the
/// base expansion, reusing the longest memoized constraint prefix from
/// `cache`. `None` means an ordering place went unsafe.
pub(crate) fn realize(
    base: &BaseExpansion,
    constraints: &[(TransitionId, TransitionId)],
    cache: &mut PrefixCache,
) -> Option<StateGraph> {
    // Longest memoized prefix: the chained path would have re-executed
    // those products (or, for a memoized failure, executed the failing
    // prefix before bailing) — count them as hits either way.
    let mut start = constraints.len();
    let mut sg = loop {
        if start == 0 {
            break base.sg.clone();
        }
        match cache.memo.get(&constraints[..start]) {
            Some(Some(g)) => {
                cache.hits += start as u64;
                break g.clone();
            }
            Some(None) => {
                cache.hits += start as u64;
                return None;
            }
            None => start -= 1,
        }
    };
    for i in start..constraints.len() {
        let (before, rtz) = constraints[i];
        cache.products += 1;
        match restrict_with_place(&sg, EventId(before.0), EventId(rtz.0)) {
            Ok(next) => {
                cache.insert(&constraints[..=i], Some(next.clone()));
                sg = next;
            }
            Err(_) => {
                cache.insert(&constraints[..=i], None);
                return None;
            }
        }
    }
    Some(sg)
}

/// The reshuffling of a kept lattice point whose graph [`realize`]
/// derived: the base STG with one ordering place per constraint, and
/// the constraints as choice labels.
pub(crate) fn reshuffling(
    base: &BaseExpansion,
    constraints: &[(TransitionId, TransitionId)],
    sg: StateGraph,
) -> Reshuffling {
    let mut stg = base.stg.clone();
    let mut choices = Vec::with_capacity(constraints.len());
    for &(before, rtz) in constraints {
        stg.connect(before, rtz)
            .expect("a fresh place takes both arcs");
        choices.push(format!(
            "{} -> {}",
            base.stg.transition_name(before),
            base.stg.transition_name(rtz)
        ));
    }
    Reshuffling { stg, sg, choices }
}

/// A canonical key for a constraint set modulo the base expansion's
/// signal automorphisms: the lexicographically least rendering over the
/// identity and every automorphism. Two mirror-image reshufflings share
/// a key; the first one enumerated wins.
pub(crate) fn canonical_choice_key(
    stg: &Stg,
    constraints: &[(TransitionId, TransitionId)],
    autos: &[Vec<SignalId>],
) -> String {
    let render = |map: Option<&Vec<SignalId>>| -> Option<String> {
        let mut labels = Vec::with_capacity(constraints.len());
        for &(before, rtz) in constraints {
            let (b, r) = match map {
                None => (before, rtz),
                Some(p) => (
                    map_transition(stg, before, p)?,
                    map_transition(stg, rtz, p)?,
                ),
            };
            labels.push(format!(
                "{} -> {}",
                stg.transition_name(b),
                stg.transition_name(r)
            ));
        }
        labels.sort_unstable();
        Some(labels.join("; "))
    };
    let mut best = render(None).expect("identity rendering cannot fail");
    for p in autos {
        if let Some(alt) = render(Some(p)) {
            if alt < best {
                best = alt;
            }
        }
    }
    best
}
