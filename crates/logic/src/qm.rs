//! Exact two-level minimization: Quine–McCluskey prime generation plus
//! branch-and-bound unate covering. Exponential in general, so it is a
//! test-only reference: the tests use it to cross-check the heuristic
//! minimizer on small functions.

use std::collections::HashSet;

use crate::cover::Cover;
use crate::cube::Cube;

/// Generates all prime implicants of `on ∪ dc` given as minterm codes.
pub fn prime_implicants(num_vars: usize, on: &[u64], dc: &[u64]) -> Vec<Cube> {
    let mut current: HashSet<Cube> = on
        .iter()
        .chain(dc.iter())
        .map(|&m| Cube::minterm(m, num_vars))
        .collect();
    let mut primes: Vec<Cube> = Vec::new();
    while !current.is_empty() {
        let cubes: Vec<Cube> = current.iter().copied().collect();
        let mut merged: HashSet<Cube> = HashSet::new();
        let mut was_merged: Vec<bool> = vec![false; cubes.len()];
        for i in 0..cubes.len() {
            for j in i + 1..cubes.len() {
                let (a, b) = (cubes[i], cubes[j]);
                // Mergeable: same variable support, distance 1.
                if (a.pos | a.neg) == (b.pos | b.neg) && a.distance(b) == 1 {
                    let m = a.supercube(b);
                    merged.insert(m);
                    was_merged[i] = true;
                    was_merged[j] = true;
                }
            }
        }
        for (i, &c) in cubes.iter().enumerate() {
            if !was_merged[i] {
                primes.push(c);
            }
        }
        current = merged;
    }
    primes.sort_unstable();
    primes.dedup();
    primes
}

/// Exact minimum cover: fewest cubes, ties broken by fewest literals.
///
/// Returns the chosen primes as a [`Cover`].
pub fn exact_minimize(num_vars: usize, on: &[u64], dc: &[u64]) -> Cover {
    if on.is_empty() {
        return Cover::empty(num_vars);
    }
    let primes = prime_implicants(num_vars, on, dc);
    // Deduplicate on-minterms.
    let mut minterms: Vec<u64> = on.to_vec();
    minterms.sort_unstable();
    minterms.dedup();
    // Covering table: for each minterm, which primes cover it.
    let covering: Vec<Vec<usize>> = minterms
        .iter()
        .map(|&m| {
            primes
                .iter()
                .enumerate()
                .filter(|(_, p)| p.covers_point(m))
                .map(|(i, _)| i)
                .collect()
        })
        .collect();

    // Branch and bound.
    struct Search<'a> {
        primes: &'a [Cube],
        covering: &'a [Vec<usize>],
        best: Option<(usize, u32, Vec<usize>)>,
    }
    impl Search<'_> {
        fn go(&mut self, chosen: &mut Vec<usize>, covered: &mut Vec<bool>, lits: u32) {
            if let Some((bc, bl, _)) = &self.best {
                if chosen.len() > *bc || (chosen.len() == *bc && lits >= *bl) {
                    return;
                }
            }
            // Pick the uncovered minterm with the fewest candidate primes.
            let next = covered
                .iter()
                .enumerate()
                .filter(|&(_, &c)| !c)
                .min_by_key(|&(i, _)| self.covering[i].len())
                .map(|(i, _)| i);
            let Some(mi) = next else {
                let better = match &self.best {
                    None => true,
                    Some((bc, bl, _)) => chosen.len() < *bc || (chosen.len() == *bc && lits < *bl),
                };
                if better {
                    self.best = Some((chosen.len(), lits, chosen.clone()));
                }
                return;
            };
            if let Some((bc, _, _)) = &self.best {
                if chosen.len() + 1 > *bc {
                    return;
                }
            }
            let candidates = self.covering[mi].clone();
            for p in candidates {
                if chosen.contains(&p) {
                    continue;
                }
                let newly: Vec<usize> = covered
                    .iter()
                    .enumerate()
                    .filter(|&(i, &c)| !c && self.covering[i].contains(&p))
                    .map(|(i, _)| i)
                    .collect();
                for &i in &newly {
                    covered[i] = true;
                }
                chosen.push(p);
                self.go(chosen, covered, lits + self.primes[p].num_literals());
                chosen.pop();
                for &i in &newly {
                    covered[i] = false;
                }
            }
        }
    }

    let mut search = Search {
        primes: &primes,
        covering: &covering,
        best: None,
    };
    let mut covered = vec![false; minterms.len()];
    // Essential primes first: minterms covered by exactly one prime.
    let mut chosen: Vec<usize> = Vec::new();
    let mut lits = 0u32;
    for (i, cands) in covering.iter().enumerate() {
        if cands.len() == 1 && !covered[i] {
            let p = cands[0];
            if !chosen.contains(&p) {
                chosen.push(p);
                lits += primes[p].num_literals();
                for (j, c) in covered.iter_mut().enumerate() {
                    if covering[j].contains(&p) {
                        *c = true;
                    }
                }
            }
        }
    }
    search.go(&mut chosen, &mut covered, lits);
    let (_, _, sel) = search.best.expect("some cover exists");
    Cover::from_cubes(num_vars, sel.into_iter().map(|i| primes[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::espresso::{cost, minimize};
    use crate::interval::{dont_care_isop, minimize_codes_with_dc};
    use crate::tautology::cover_equal;

    #[test]
    fn primes_of_small_function() {
        // f = Σm(0,1,2) over 2 vars: primes a' (m0,m2... wait var0=LSB)
        // m0=00, m1=01, m2=10: primes are var0' (covers 0,2) and
        // var1' (covers 0,1).
        let primes = prime_implicants(2, &[0, 1, 2], &[]);
        assert_eq!(primes.len(), 2);
        for p in &primes {
            assert_eq!(p.num_literals(), 1);
        }
    }

    #[test]
    fn exact_on_xor() {
        let r = exact_minimize(2, &[1, 2], &[]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.num_literals(), 4);
    }

    #[test]
    fn exact_uses_dont_cares() {
        let r = exact_minimize(2, &[1], &[3]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.num_literals(), 1);
    }

    #[test]
    fn essential_prime_path() {
        // Σm(0,1,5,7): essential primes force specific selections.
        let on = [0u64, 1, 5, 7];
        let r = exact_minimize(3, &on, &[]);
        let onc = Cover::from_minterms(3, &on);
        assert!(cover_equal(&r, &onc));
        assert!(r.len() <= 3);
    }

    /// A seeded incompletely specified function over `nv` variables as
    /// its on, off and don't-care codes: about `dc_eighths`/8 of the
    /// minterms are don't-cares, and of the rest about half are on up
    /// to 6 variables, a quarter at 7 and an eighth at 8 (the exact
    /// covering search is exponential in the on-set).
    fn seeded_function(seed: &mut u64, nv: usize, dc_eighths: u64) -> [Vec<u64>; 3] {
        let on_one_in = 1 << (nv.max(6) - 5);
        let mut sets: [Vec<u64>; 3] = Default::default();
        for m in 0..1u64 << nv {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = *seed >> 33;
            let set = if r % 8 < dc_eighths {
                2
            } else {
                usize::from((r >> 3) % on_one_in != 0)
            };
            sets[set].push(m);
        }
        sets
    }

    /// Seeded functions of each variable count in `vars`, minimized
    /// exactly, by espresso and by the BDD path: every cover contains
    /// the on-set and misses the off-set, and the exact cover costs no
    /// more than either heuristic.
    fn cross_check(vars: std::ops::RangeInclusive<usize>, trials: u64) {
        let mut seed = 0x9E3779B97F4A7C15u64;
        for nv in vars {
            for trial in 0..trials {
                let [on, off, dc] = seeded_function(&mut seed, nv, trial % 5);
                let exact = exact_minimize(nv, &on, &dc);
                let heur = minimize(
                    &Cover::from_minterms(nv, &on),
                    &Cover::from_minterms(nv, &dc),
                );
                let care = [on.as_slice(), &off].concat();
                let bdd = minimize_codes_with_dc(nv, &on, &off, &dont_care_isop(nv, &care));
                let at = format!("{nv} vars, trial {trial}");
                for (name, f) in [("exact", &exact), ("espresso", &heur), ("bdd", &bdd)] {
                    assert!(on.iter().all(|&m| f.covers_point(m)), "{at}: {name} {f}");
                    assert!(!off.iter().any(|&m| f.covers_point(m)), "{at}: {name} {f}");
                }
                assert!(cost(&exact) <= cost(&heur), "{at}: {exact} vs {heur}");
                assert!(cost(&exact) <= cost(&bdd), "{at}: {exact} vs {bdd}");
            }
        }
    }

    #[test]
    fn exact_never_worse_than_heuristic() {
        cross_check(3..=6, 25);
    }

    #[test]
    #[ignore = "exact covering on 7-8 variables: a few seconds in release"]
    fn exact_never_worse_than_heuristic_on_7_and_8_variables() {
        cross_check(7..=8, 40);
    }
}
