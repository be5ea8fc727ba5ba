//! Covers: sums of product terms.

use std::fmt;

use crate::cube::{mask, Cube};

/// A sum of cubes over a fixed number of variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    cubes: Vec<Cube>,
    num_vars: usize,
}

impl Cover {
    /// The empty cover (constant 0).
    pub fn empty(num_vars: usize) -> Cover {
        Cover {
            cubes: Vec::new(),
            num_vars,
        }
    }

    /// The universal cover (constant 1).
    pub fn one(num_vars: usize) -> Cover {
        Cover {
            cubes: vec![Cube::top()],
            num_vars,
        }
    }

    /// A cover from cubes; empty cubes are dropped.
    pub fn from_cubes(num_vars: usize, cubes: impl IntoIterator<Item = Cube>) -> Cover {
        Cover {
            cubes: cubes.into_iter().filter(|c| !c.is_empty()).collect(),
            num_vars,
        }
    }

    /// A cover of minterms from raw codes.
    pub fn from_minterms(num_vars: usize, codes: &[u64]) -> Cover {
        Cover {
            cubes: codes
                .iter()
                .map(|&code| Cube::minterm(code, num_vars))
                .collect(),
            num_vars,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The cubes.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// True if constant 0 (no cubes).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Total number of literals (the paper's logic-complexity estimate).
    pub fn num_literals(&self) -> u32 {
        self.cubes.iter().map(|c| c.num_literals()).sum()
    }

    /// Adds a cube (ignored if empty).
    pub fn push(&mut self, c: Cube) {
        if !c.is_empty() {
            self.cubes.push(c);
        }
    }

    /// True if some cube covers the minterm.
    pub fn covers_point(&self, code: u64) -> bool {
        self.cubes.iter().any(|c| c.covers_point(code))
    }

    /// The union of two covers.
    pub fn or(&self, other: &Cover) -> Cover {
        assert_eq!(self.num_vars, other.num_vars);
        let mut cubes = self.cubes.clone();
        cubes.extend_from_slice(&other.cubes);
        Cover {
            cubes,
            num_vars: self.num_vars,
        }
    }

    /// The product of two covers (pairwise cube intersections).
    pub fn and(&self, other: &Cover) -> Cover {
        assert_eq!(self.num_vars, other.num_vars);
        let mut out = Cover::empty(self.num_vars);
        for &a in &self.cubes {
            for &b in &other.cubes {
                out.push(a.intersect(b));
            }
        }
        out
    }

    /// The cofactor of the cover with respect to `var = value`.
    pub fn cofactor(&self, var: usize, value: bool) -> Cover {
        Cover {
            cubes: self
                .cubes
                .iter()
                .filter_map(|c| c.cofactor(var, value))
                .collect(),
            num_vars: self.num_vars,
        }
    }

    /// The cofactor with respect to a cube: keep cubes intersecting `c`,
    /// dropping the literals of `c` (used by tautology-based checks).
    pub fn cofactor_cube(&self, c: Cube) -> Cover {
        let lits = c.pos | c.neg;
        Cover {
            cubes: self
                .cubes
                .iter()
                .filter(|&&x| x.intersects(c))
                .map(|&x| Cube {
                    pos: x.pos & !lits,
                    neg: x.neg & !lits,
                })
                .collect(),
            num_vars: self.num_vars,
        }
    }

    /// Removes cubes covered by another single cube of the cover, and
    /// duplicate cubes. Cheap cleanup, not full irredundancy.
    pub fn weed(&mut self) {
        self.cubes.sort_unstable();
        self.cubes.dedup();
        let cubes = std::mem::take(&mut self.cubes);
        let mut kept: Vec<Cube> = Vec::with_capacity(cubes.len());
        // Wider cubes (fewer literals) first so narrower ones get culled.
        let mut sorted = cubes;
        sorted.sort_by_key(|c| c.num_literals());
        'outer: for c in sorted {
            for k in &kept {
                if k.covers(c) {
                    continue 'outer;
                }
            }
            kept.push(c);
        }
        kept.sort_unstable();
        self.cubes = kept;
    }

    /// Exhaustively enumerates covered minterms (for testing; exponential
    /// in `num_vars`, caller should keep `num_vars` small).
    pub fn enumerate_minterms(&self) -> Vec<u64> {
        let m = mask(self.num_vars);
        let mut out = Vec::new();
        // Only sensible for small var counts.
        assert!(self.num_vars <= 24, "enumerate_minterms is for tests");
        for code in 0..=m {
            if self.covers_point(code) {
                out.push(code);
            }
            if code == m {
                break;
            }
        }
        out
    }

    /// Renders the cover as a named sum of products.
    pub fn render_named(&self, names: &[String]) -> String {
        if self.cubes.is_empty() {
            return "0".to_string();
        }
        self.cubes
            .iter()
            .map(|c| c.render_named(names))
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        let parts: Vec<String> = self.cubes.iter().map(|c| c.render(self.num_vars)).collect();
        write!(f, "{}", parts.join(" + "))
    }
}

impl FromIterator<Cube> for Cover {
    /// Collects cubes into a cover sized at [`crate::cube::MAX_VARS`];
    /// prefer [`Cover::from_cubes`] when the variable count matters.
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Self {
        Cover::from_cubes(crate::cube::MAX_VARS, iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_and_cofactor() {
        // f = a + b' over 2 vars.
        let f = Cover::from_cubes(2, [Cube::literal(0, true), Cube::literal(1, false)]);
        assert!(f.covers_point(0b01)); // a=1,b=0
        assert!(f.covers_point(0b00)); // b=0
        assert!(!f.covers_point(0b10)); // a=0,b=1
        let fa0 = f.cofactor(0, false);
        // f|a=0 = b'
        assert_eq!(fa0.len(), 1);
        assert!(fa0.covers_point(0b00));
        assert!(!fa0.covers_point(0b10));
        let g = Cover::from_cubes(2, [Cube::literal(1, true)]);
        let fg = f.and(&g);
        // (a + b') & b = ab
        assert!(fg.covers_point(0b11));
        assert!(!fg.covers_point(0b01));
        assert!(!fg.covers_point(0b00));
    }

    #[test]
    fn weed_removes_contained() {
        let mut f = Cover::from_cubes(
            2,
            [
                Cube::literal(0, true),
                Cube::literal(0, true).intersect(Cube::literal(1, true)),
                Cube::literal(0, true),
            ],
        );
        f.weed();
        assert_eq!(f.len(), 1);
        assert_eq!(f.cubes()[0], Cube::literal(0, true));
    }

    #[test]
    fn minterm_enumeration() {
        let f = Cover::from_minterms(3, &[0, 7]);
        assert_eq!(f.enumerate_minterms(), vec![0, 7]);
        assert_eq!(f.num_literals(), 6);
    }

    #[test]
    fn cofactor_cube_drops_literals() {
        // f = ab + a'c; f cofactored by cube a -> b (+ nothing from a'c).
        let ab = Cube::literal(0, true).intersect(Cube::literal(1, true));
        let a_c = Cube::literal(0, false).intersect(Cube::literal(2, true));
        let f = Cover::from_cubes(3, [ab, a_c]);
        let fc = f.cofactor_cube(Cube::literal(0, true));
        assert_eq!(fc.len(), 1);
        assert_eq!(fc.cubes()[0], Cube::literal(1, true));
    }

    #[test]
    fn display_and_named() {
        let f = Cover::from_cubes(2, [Cube::literal(0, true)]);
        let names: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        assert_eq!(f.render_named(&names), "x");
        assert_eq!(Cover::empty(2).render_named(&names), "0");
        assert_eq!(Cover::one(2).render_named(&names), "1");
    }
}
