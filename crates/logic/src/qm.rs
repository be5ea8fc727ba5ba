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

    #[test]
    fn exact_never_worse_than_heuristic() {
        let mut seed = 0x9E3779B97F4A7C15u64;
        for trial in 0..20 {
            seed = seed
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let nv = 3 + (trial % 2) as usize;
            let mut on_codes = Vec::new();
            for m in 0..(1u64 << nv) {
                if (seed >> (m % 59)) & 1 == 1 {
                    on_codes.push(m);
                }
            }
            if on_codes.is_empty() {
                continue;
            }
            let on = Cover::from_minterms(nv, &on_codes);
            let dc = Cover::empty(nv);
            let exact = exact_minimize(nv, &on_codes, &[]);
            let heur = minimize(&on, &dc);
            assert!(cover_equal(&exact, &on), "trial {trial}");
            assert!(
                cost(&exact) <= cost(&heur),
                "trial {trial}: exact {exact} worse than heuristic {heur}"
            );
        }
    }
}
