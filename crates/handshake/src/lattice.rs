//! The reshuffling lattice of a partial specification.
//!
//! After the base expansion, each return-to-zero (RTZ) transition `t`
//! is concurrent with a set of *anchor* events — the other events of
//! the specification it could be ordered after. A lattice point picks,
//! for every RTZ transition, the subset of its anchors that must
//! precede it; the empty choice everywhere is the *eager* extreme (RTZ
//! fires as soon as the protocol allows), the full choice everywhere is
//! the *lazy* extreme (RTZ is deferred behind everything it was
//! concurrent with). Points are ordered by inclusion, so the choice
//! sets form a genuine lattice: product of per-transition subset
//! lattices.
//!
//! RTZ-to-RTZ ordering is deliberately left out of the choice sets —
//! mutual constraints between two concurrent RTZ transitions would
//! deadlock, and their relative order is already pinned transitively by
//! the anchors they individually wait for.

use reshuffle_petri::TransitionId;
use reshuffle_sg::conc::concurrent_pairs;
use reshuffle_sg::props::live_and_speed_independent;
use reshuffle_sg::restrict::restrict_with_place;
use reshuffle_sg::EventId;

use crate::expand::BaseExpansion;

/// Hard cap on raw lattice points enumerated before pruning; beyond it
/// the per-transition choice sets degrade from full subsets to prefix
/// chains, and finally to the two extremes only.
const RAW_CAP: usize = 4096;

/// One point of the lattice: per RTZ transition (in `BaseExpansion::rtz`
/// order), a bitmask over its anchor list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LatticePoint {
    pub masks: Vec<u64>,
}

impl LatticePoint {
    /// The ordering constraints `(anchor, rtz)` this point commits to.
    pub fn constraints(
        &self,
        rtz: &[TransitionId],
        anchors: &[Vec<TransitionId>],
    ) -> Vec<(TransitionId, TransitionId)> {
        let mut out = Vec::new();
        for (i, &t) in rtz.iter().enumerate() {
            for (j, &a) in anchors[i].iter().enumerate() {
                if self.masks[i] >> j & 1 == 1 {
                    out.push((a, t));
                }
            }
        }
        out
    }
}

/// Per RTZ transition, the anchor events it may be ordered after: every
/// single-instance, non-RTZ signal edge concurrent with it in the base
/// state graph *whose individual serialization is feasible* — the
/// ordering place stays 1-safe and the graph stays deadlock-free, live
/// and speed-independent. The safety prefilter is what bounds the
/// reshuffling window at the channel's next occurrence: an event of the
/// following cycle would refill the ordering place before the RTZ
/// transition consumes it. Sorted by transition id.
pub(crate) fn anchors(base: &BaseExpansion) -> Vec<Vec<TransitionId>> {
    let pairs = concurrent_pairs(&base.sg);
    base.rtz
        .iter()
        .map(|&t| {
            let te = base.stg.edge_of(t).expect("RTZ transitions carry edges");
            base.stg
                .transitions()
                .filter(|&u| {
                    let Some(ue) = base.stg.edge_of(u) else {
                        return false; // dummies cannot anchor
                    };
                    !base.rtz.contains(&u)
                        && base.stg.transitions_of_edge(ue).len() == 1
                        && (pairs.contains(&(te, ue)) || pairs.contains(&(ue, te)))
                        && restrict_with_place(&base.sg, EventId(u.0), EventId(t.0))
                            .is_ok_and(|sg| live_and_speed_independent(&sg))
                })
                .take(63) // LatticePoint masks are u64 bitmasks
                .collect()
        })
        .collect()
}

/// Enumerates lattice points, *eager first, lazy second*, then the
/// intermediate points in deterministic mixed-radix order — so a
/// truncation that keeps a prefix always keeps both extremes.
pub(crate) fn enumerate_points(anchors: &[Vec<TransitionId>]) -> Vec<LatticePoint> {
    // Choose the per-transition mask menus, degrading until the product
    // fits the cap. Menu *lengths* are computed arithmetically — the
    // full-subset tier would otherwise materialize 2^k masks just to
    // decide it does not fit. `anchors()` caps k at 63, so the shifts
    // are in range.
    let sizes: Vec<usize> = anchors.iter().map(|a| a.len()).collect();
    let product_of = |len_of: &dyn Fn(usize) -> u128| {
        sizes
            .iter()
            .map(|&k| len_of(k))
            .fold(1u128, |p, n| p.saturating_mul(n))
    };
    let full_len = |k: usize| 1u128 << k;
    let prefix_len = |k: usize| (k + 1) as u128;
    let full_menu = |k: usize| -> Vec<u64> { (0..1u64 << k).collect() };
    let prefix_menu = |k: usize| -> Vec<u64> { (0..=k as u64).map(|j| (1u64 << j) - 1).collect() };
    let extremes_menu = |k: usize| -> Vec<u64> {
        if k == 0 {
            vec![0]
        } else {
            vec![0, (1u64 << k) - 1]
        }
    };
    let menus: Vec<Vec<u64>> = if product_of(&full_len) <= RAW_CAP as u128 {
        sizes.iter().map(|&k| full_menu(k)).collect()
    } else if product_of(&prefix_len) <= RAW_CAP as u128 {
        sizes.iter().map(|&k| prefix_menu(k)).collect()
    } else {
        sizes.iter().map(|&k| extremes_menu(k)).collect()
    };

    // Mixed-radix counter over the menus; index 0 is all-zero (eager),
    // the lazy extreme is every menu's last entry. The extremes tier can
    // still exceed the cap (2^#rtz points), so middles are truncated —
    // the extremes always survive because they are emitted first.
    let total = menus
        .iter()
        .fold(1u128, |p, m| p.saturating_mul(m.len() as u128));
    let point_at = |mut idx: usize| -> LatticePoint {
        let mut masks = Vec::with_capacity(menus.len());
        for menu in &menus {
            masks.push(menu[idx % menu.len()]);
            idx /= menu.len();
        }
        LatticePoint { masks }
    };
    let mut out = Vec::new();
    out.push(point_at(0));
    if total > 1 {
        out.push(LatticePoint {
            masks: menus.iter().map(|m| *m.last().unwrap()).collect(),
        });
        let middles = (total - 1).min(RAW_CAP as u128) as usize;
        out.extend((1..middles).map(point_at));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::four_phase_base;
    use reshuffle_petri::parse_g;

    /// Channel r/a plus an independent output pulse x+ x-: the RTZ
    /// edges are concurrent with x+ and x-.
    fn base_with_pulse() -> BaseExpansion {
        let spec = parse_g(
            ".model m\n.inputs a\n.outputs r x\n.handshake r a\n.graph\n\
             r~ a~\na~ x+\nx+ x-\nx- r~\n.marking { <x-,r~> }\n.end\n",
        )
        .unwrap();
        four_phase_base(&spec).unwrap()
    }

    #[test]
    fn anchors_are_the_concurrent_spec_events() {
        let base = base_with_pulse();
        let anc = anchors(&base);
        assert_eq!(anc.len(), 2); // r-, a-
        let names = |ts: &[reshuffle_petri::TransitionId]| -> Vec<String> {
            ts.iter()
                .map(|&t| base.stg.transition_name(t).to_string())
                .collect()
        };
        assert_eq!(names(&anc[0]), vec!["x+", "x-"]);
        assert_eq!(names(&anc[1]), vec!["x+", "x-"]);
    }

    #[test]
    fn points_start_eager_and_then_lazy() {
        let base = base_with_pulse();
        let anc = anchors(&base);
        let points = enumerate_points(&anc);
        assert_eq!(points.len(), 16); // 2 RTZ x 4 subsets
        assert!(points[0].masks.iter().all(|&m| m == 0), "eager first");
        assert_eq!(points[1].masks, vec![0b11, 0b11], "lazy second");
        assert!(points[0].constraints(&base.rtz, &anc).is_empty());
        assert_eq!(points[1].constraints(&base.rtz, &anc).len(), 4);
    }

    #[test]
    fn oversized_lattices_degrade_gracefully() {
        // 13 anchors for one transition would be 8192 subsets; the
        // prefix menu caps it at 14 points.
        let anc: Vec<Vec<TransitionId>> =
            vec![(0..13u32).map(reshuffle_petri::TransitionId).collect()];
        let points = enumerate_points(&anc);
        assert_eq!(points.len(), 14);
        assert_eq!(points[0].masks, vec![0]);
        assert_eq!(points[1].masks, vec![(1 << 13) - 1]);
    }
}
