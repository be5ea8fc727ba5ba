//! Scalable minimization of incompletely specified functions given as
//! raw minterm lists.
//!
//! [`minimize`](crate::minimize) manipulates explicit cube lists, which
//! is the right tool for paper-sized functions but quadratic-or-worse in
//! the minterm count: deriving next-state logic from a 10⁶-state graph
//! would spend hours in `weed`/`complement`. This module goes through a
//! BDD instead: the on/off code lists become diagrams in near-linear
//! time ([`Bdd::from_codes`]), the cover is extracted by the
//! Minato–Morreale interval ISOP ([`Bdd::isop`]) whose cost tracks the
//! *diagram* sizes, and the result is polished to prime + irredundant
//! with BDD oracles. The result satisfies the same contract as
//! [`minimize`](crate::minimize): `on ⊆ f` and `f ∩ off = ∅`.
//!
//! The don't-care set enters as a cube list: the exact ISOP of the codes
//! in neither list ([`dont_care_isop`]). Many functions over the same
//! reachable codes share it, so [`minimize_codes_with_dc`] takes it
//! precomputed; [`minimize_codes`] computes its own. The ISOP depends
//! only on the function, not on the manager that built the diagram, so
//! both give the same cover.

use crate::bdd::{Bdd, NodeRef, FALSE};
use crate::cover::Cover;
use crate::cube::Cube;

/// Minimizes the incompletely specified function with on-set `on_codes`
/// and off-set `off_codes` (everything else don't-care) over `num_vars`
/// variables. The two code lists must be disjoint.
///
/// Returns a prime, irredundant cover `f` with `on ⊆ f ⊆ ¬off`.
pub fn minimize_codes(num_vars: usize, on_codes: &[u64], off_codes: &[u64]) -> Cover {
    let dc = dont_care_isop(num_vars, &[on_codes, off_codes].concat());
    minimize_codes_with_dc(num_vars, on_codes, off_codes, &dc)
}

/// The exact cube cover (interval ISOP with lower = upper) of the codes
/// over `num_vars` variables that are not in `care_codes`.
pub fn dont_care_isop(num_vars: usize, care_codes: &[u64]) -> Cover {
    let mut bdd = Bdd::new();
    let care = bdd.from_codes(care_codes, num_vars);
    let outside = bdd.not(care);
    let (_, cubes) = bdd.isop(outside, outside);
    Cover::from_cubes(num_vars, cubes)
}

/// When the exact on/dc covers extracted from the diagrams stay under
/// this many cubes, they are handed to the espresso loop for full
/// minimization quality; above it the interval ISOP result is polished
/// locally instead (prime + irredundant, but no REDUCE restarts).
const ESPRESSO_HANDOFF_CUBES: usize = 4096;

/// [`minimize_codes`] with its don't-care cover precomputed: `dc` must
/// be [`dont_care_isop`] of the codes in `on_codes` or `off_codes`,
/// in which case the result is the cover [`minimize_codes`] returns.
///
/// The off-set diagram is built only for the large-cover fallback (and
/// the debug checks): the espresso loop needs `dc` alone.
pub fn minimize_codes_with_dc(
    num_vars: usize,
    on_codes: &[u64],
    off_codes: &[u64],
    dc: &Cover,
) -> Cover {
    let mut bdd = Bdd::new();
    let on = bdd.from_codes(on_codes, num_vars);
    // The exact cube cover of the on-set, extracted from its diagram
    // (lower = upper makes the ISOP exact). With `dc`, it compresses a
    // million minterms into the handful of cubes the structure really
    // has, which the cube-list espresso loop then minimizes exactly as
    // it would have minimized the raw minterm lists — only feasibly so.
    let (_, on_cubes) = bdd.isop(on, on);
    if on_cubes.len() + dc.len() <= ESPRESSO_HANDOFF_CUBES {
        let cover = crate::espresso::minimize(&Cover::from_cubes(num_vars, on_cubes), dc);
        debug_assert!(meets_contract(&mut bdd, num_vars, on, off_codes, &cover));
        return cover;
    }
    // Safety valve: even the exact covers are huge. Take the interval
    // ISOP (irredundant by construction) and polish it to primes
    // against the off-set diagram.
    let off = bdd.from_codes(off_codes, num_vars);
    let upper = bdd.not(off);
    let (_f, cubes) = bdd.isop(on, upper);
    let mut cover = Cover::from_cubes(num_vars, expand_cubes(&mut bdd, off, cubes));
    cover.weed();
    irredundant(&mut bdd, on, &mut cover);
    debug_assert!(meets_contract(&mut bdd, num_vars, on, off_codes, &cover));
    cover
}

/// Disjoint on and off sets, and `on ⊆ f ⊆ ¬off` (debug checks only).
fn meets_contract(
    bdd: &mut Bdd,
    num_vars: usize,
    on: NodeRef,
    off_codes: &[u64],
    f: &Cover,
) -> bool {
    let off = bdd.from_codes(off_codes, num_vars);
    let f = bdd.from_cover(f);
    let nf = bdd.not(f);
    bdd.and(on, off) == FALSE && bdd.and(on, nf) == FALSE && bdd.and(f, off) == FALSE
}

/// EXPAND against the off-set diagram: greedily raise literals while the
/// cube stays disjoint from `off`. Mirrors the cube-list `expand` of the
/// espresso loop, with the off-set intersection answered by a BDD walk.
fn expand_cubes(bdd: &mut Bdd, off: NodeRef, cubes: Vec<Cube>) -> Vec<Cube> {
    cubes
        .into_iter()
        .map(|c| {
            let mut cur = c;
            for v in c.vars() {
                let raised = cur.with(v, None);
                if !bdd.cube_intersects(off, raised) {
                    cur = raised;
                }
            }
            cur
        })
        .collect()
}

/// IRREDUNDANT with a BDD oracle: drop a cube when the on-points it
/// covers are already covered by the rest of the cover.
fn irredundant(bdd: &mut Bdd, on: NodeRef, cover: &mut Cover) {
    let num_vars = cover.num_vars();
    let mut cubes: Vec<Cube> = cover.cubes().to_vec();
    // Try to remove narrow cubes first, keeping the broad ones.
    cubes.sort_by_key(|c| std::cmp::Reverse(c.num_literals()));
    let mut i = 0;
    while i < cubes.len() {
        let c = cubes[i];
        let rest = Cover::from_cubes(
            num_vars,
            cubes
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &x)| x),
        );
        let rest_bdd = bdd.from_cover(&rest);
        let c_bdd = bdd.from_cover(&Cover::from_cubes(num_vars, [c]));
        let not_rest = bdd.not(rest_bdd);
        let uniquely_on = bdd.and(c_bdd, on);
        if bdd.and(uniquely_on, not_rest) == FALSE {
            cubes.remove(i);
        } else {
            i += 1;
        }
    }
    cubes.sort_unstable();
    *cover = Cover::from_cubes(num_vars, cubes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::espresso::{cost, minimize};
    use crate::tautology::cover_equal;

    /// Exhaustively checks the contract on ⊆ f ⊆ ¬off.
    fn check_contract(f: &Cover, num_vars: usize, on: &[u64], off: &[u64]) {
        for &m in on {
            assert!(f.covers_point(m), "on-minterm {m:b} uncovered by {f}");
        }
        for &m in off {
            assert!(!f.covers_point(m), "off-minterm {m:b} covered by {f}");
        }
        let _ = num_vars;
    }

    #[test]
    fn matches_espresso_on_small_functions() {
        // Deterministic pseudo-random incompletely specified functions:
        // the interval path must produce a valid cover no costlier than
        // 2x espresso's (both are heuristics; neither dominates).
        let mut seed = 0x9E3779B97F4A7C15u64;
        for trial in 0..40 {
            let nv = 3 + trial % 4;
            let mut on = Vec::new();
            let mut off = Vec::new();
            for m in 0..(1u64 << nv) {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match (seed >> 33) % 3 {
                    0 => on.push(m),
                    1 => off.push(m),
                    _ => {}
                }
            }
            let f = minimize_codes(nv, &on, &off);
            check_contract(&f, nv, &on, &off);
            let on_cover = Cover::from_minterms(nv, &on);
            let dc_codes: Vec<u64> = (0..(1u64 << nv))
                .filter(|m| !on.contains(m) && !off.contains(m))
                .collect();
            let dc = Cover::from_minterms(nv, &dc_codes);
            let esp = minimize(&on_cover, &dc);
            assert!(
                cost(&f).cubes <= 2 * esp.len().max(1),
                "trial {trial}: interval {f} vs espresso {esp}"
            );
        }
    }

    /// The don't-care cover as a per-function derivation computes it:
    /// the exact ISOP of `¬(on ∨ off)`, from separately built diagrams.
    fn own_dc(num_vars: usize, on: &[u64], off: &[u64]) -> Cover {
        let mut bdd = Bdd::new();
        let on = bdd.from_codes(on, num_vars);
        let off = bdd.from_codes(off, num_vars);
        let care = bdd.or(on, off);
        let dc = bdd.not(care);
        let (_, cubes) = bdd.isop(dc, dc);
        Cover::from_cubes(num_vars, cubes)
    }

    #[test]
    fn precomputed_dont_care_matches_minimize_codes() {
        // Seeded functions with codes in neither list. The care codes
        // are handed over in another order, with repeats, as a caller
        // sharing one reachable-code list would.
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        for trial in 0..48 {
            let nv = 3 + trial % 6;
            let (mut on, mut off) = (Vec::new(), Vec::new());
            for m in 0..(1u64 << nv) {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                match seed % 3 {
                    0 => on.push(m),
                    1 => off.push(m),
                    _ => {}
                }
            }
            let mut care: Vec<u64> = off.iter().chain(&on).chain(&on).copied().collect();
            care.reverse();
            let dc = dont_care_isop(nv, &care);
            assert_eq!(dc, own_dc(nv, &on, &off), "trial {trial}");
            let f = minimize_codes_with_dc(nv, &on, &off, &dc);
            assert_eq!(f, minimize_codes(nv, &on, &off), "trial {trial}");
            check_contract(&f, nv, &on, &off);
        }
    }

    #[test]
    fn precomputed_dont_care_matches_on_the_large_cover_fallback() {
        // Even parity over 13 variables: its exact ISOP is its 4,096
        // minterms, and the codes in neither list add thousands more,
        // so both entry points take the interval-ISOP fallback.
        let nv = 13;
        let on: Vec<u64> = (0..1u64 << nv)
            .filter(|m| m.count_ones() % 2 == 0)
            .collect();
        let off = [0b1u64, 0b10];
        let dc = dont_care_isop(nv, &[&on[..], &off].concat());
        assert_eq!(dc, own_dc(nv, &on, &off));
        assert!(on.len() + dc.len() > ESPRESSO_HANDOFF_CUBES);
        let f = minimize_codes_with_dc(nv, &on, &off, &dc);
        assert_eq!(f, minimize_codes(nv, &on, &off));
        check_contract(&f, nv, &on, &off);
        assert!(f.len() < 20, "{f}");
    }

    #[test]
    fn completely_specified_equals_function() {
        // With an empty dc set the cover must equal the on-set exactly.
        let on = [0b001u64, 0b011, 0b101, 0b111];
        let off = [0b000u64, 0b010, 0b100, 0b110];
        let f = minimize_codes(3, &on, &off);
        assert_eq!(f.len(), 1, "{f}");
        assert_eq!(f.num_literals(), 1);
        let on_cover = Cover::from_minterms(3, &on);
        assert!(cover_equal(&f, &on_cover));
    }

    #[test]
    fn empty_and_universal() {
        assert!(minimize_codes(4, &[], &[0, 1]).is_empty());
        let f = minimize_codes(4, &[3], &[]);
        assert_eq!(f.len(), 1);
        assert!(f.cubes()[0].is_top(), "everything else is dc: {f}");
    }

    #[test]
    fn large_structured_function_is_fast() {
        // A 20-variable function with 2^16 on-minterms: far beyond what
        // the cube-list path could weed, near-instant through the BDD.
        let nv = 20;
        let on: Vec<u64> = (0..1u64 << 16).map(|m| m << 4 | 0b1010).collect();
        let off: Vec<u64> = (0..1u64 << 10).map(|m| m << 4 | 0b0101).collect();
        let f = minimize_codes(nv, &on, &off);
        check_contract(&f, nv, &on[..200], &off[..200]);
        assert!(f.len() <= 2, "{f}");
    }
}
