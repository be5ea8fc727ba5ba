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
//! Realization shares work across lattice points through a
//! [`PrefixCache`]: points are constraint *sequences* in a fixed
//! canonical order (RTZ transitions in `BaseExpansion::rtz` order, each
//! one's anchors in its anchor-list order), so any two points agreeing
//! on their first `k` constraints pass through the same intermediate
//! state graph. The cache memoizes every intermediate restriction
//! product — including failed ones, which prune all extensions of the
//! failing prefix without re-running the product.

use std::collections::HashMap;

use reshuffle_petri::structural::{insert_causal_place, map_transition};
use reshuffle_petri::{SignalId, Stg, TransitionId};
use reshuffle_sg::props::{all_events_fire, speed_independence};
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
    /// Products the per-point chained realization would have executed
    /// (invariant: `chained_products == products + hits`).
    pub chained_products: u64,
}

impl PrefixCache {
    fn insert(&mut self, key: &[(TransitionId, TransitionId)], sg: Option<StateGraph>) {
        if self.memo.len() < MAX_PREFIX_ENTRIES {
            self.memo.insert(key.to_vec(), sg);
        }
    }
}

/// Applies one lattice point's constraints to the base expansion and
/// runs the semantic gates, reusing the longest memoized constraint
/// prefix from `cache`. `None` means the point is pruned.
pub(crate) fn realize(
    base: &BaseExpansion,
    constraints: &[(TransitionId, TransitionId)],
    cache: &mut PrefixCache,
) -> Option<Reshuffling> {
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
                cache.chained_products += start as u64;
                break g.clone();
            }
            Some(None) => {
                cache.hits += start as u64;
                cache.chained_products += start as u64;
                return None;
            }
            None => start -= 1,
        }
    };
    for i in start..constraints.len() {
        let (before, rtz) = constraints[i];
        cache.products += 1;
        cache.chained_products += 1;
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
    if !sg.deadlock_states().is_empty() || !all_events_fire(&sg) {
        return None;
    }
    if !speed_independence(&sg).is_speed_independent() {
        return None;
    }
    let mut stg = base.stg.clone();
    let mut choices = Vec::with_capacity(constraints.len());
    for &(before, rtz) in constraints {
        insert_causal_place(&mut stg, before, rtz).ok()?;
        choices.push(format!(
            "{} -> {}",
            base.stg.transition_name(before),
            base.stg.transition_name(rtz)
        ));
    }
    Some(Reshuffling { stg, sg, choices })
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
