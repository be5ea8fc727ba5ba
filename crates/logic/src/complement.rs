//! Cover complementation by Shannon expansion.
//!
//! One recursion over a single cube buffer: a call replaces the cover
//! at the buffer's tail by its complement. It weeds the cover, splits
//! on its most frequent variable `x` (the last one on a tie), writes
//! each cofactor past the cover and complements it there, then merges
//! the two halves `x'·f0' + x·f1'` by a two-pointer pass over their
//! sorted cubes: a cube in both halves is independent of `x` and kept
//! once. Each half is an antichain (no cube covers another) without
//! `x`, so no merged cube covers another either, and sorting the merge
//! leaves what weeding it would. A one-cube cover's complement is one
//! literal per variable, in variable order.

use std::ops::Range;

use crate::cover::{weed_from, Cover};
use crate::cube::{Cube, MAX_VARS};

/// Computes a cover of the complement of `f` over its variable set.
pub fn complement(f: &Cover) -> Cover {
    let mut buf = f.cubes().to_vec();
    complement_tail(&mut buf, 0);
    Cover::from_cubes(f.num_vars(), buf)
}

/// Replaces the cover `buf[start..]` by its complement.
fn complement_tail(buf: &mut Vec<Cube>, start: usize) {
    if buf.len() == start {
        buf.push(Cube::top());
        return;
    }
    if buf[start..].iter().any(|c| c.is_top()) {
        buf.truncate(start);
        return;
    }
    weed_from(buf, start);
    if let [c] = buf[start..] {
        buf.truncate(start);
        push_complement_cube(buf, c);
        return;
    }
    // Split on the most frequent variable.
    let mut counts = [0usize; MAX_VARS];
    for c in &buf[start..] {
        let mut bits = c.pos | c.neg;
        while bits != 0 {
            counts[bits.trailing_zeros() as usize] += 1;
            bits &= bits - 1;
        }
    }
    let var = counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, &c)| c)
        .map(|(i, _)| i)
        .expect("64 variables");
    let mid = buf.len();
    push_cofactor_complement(buf, start..mid, var, false);
    let one = buf.len();
    push_cofactor_complement(buf, start..mid, var, true);
    let end = buf.len();
    // x'·f0' + x·f1', a cube in both halves once and without x.
    let (mut i, mut j) = (mid, one);
    let (neg, pos) = (Cube::literal(var, false), Cube::literal(var, true));
    while i < one || j < end {
        let cube = if j == end || (i < one && buf[i] < buf[j]) {
            i += 1;
            buf[i - 1].intersect(neg)
        } else if i == one || buf[j] < buf[i] {
            j += 1;
            buf[j - 1].intersect(pos)
        } else {
            i += 1;
            j += 1;
            buf[i - 1]
        };
        buf.push(cube);
    }
    buf.drain(start..end);
    buf[start..].sort_unstable();
}

/// Writes past the buffer's end the complement of the cover
/// `buf[cover]` cofactored by `var = value`, sorted.
fn push_cofactor_complement(buf: &mut Vec<Cube>, cover: Range<usize>, var: usize, value: bool) {
    let half = buf.len();
    for i in cover {
        if let Some(c) = buf[i].cofactor(var, value) {
            buf.push(c);
        }
    }
    complement_tail(buf, half);
    buf[half..].sort_unstable();
}

/// Pushes the complement of the cube `c`: for each of its variables in
/// ascending order, the opposite literal.
fn push_complement_cube(buf: &mut Vec<Cube>, c: Cube) {
    let mut bits = c.pos | c.neg;
    while bits != 0 {
        let v = bits.trailing_zeros() as usize;
        buf.push(Cube::literal(v, c.neg & (1 << v) != 0));
        bits &= bits - 1;
    }
}

/// De Morgan complement of a single cube: one cube per literal.
pub fn complement_cube(c: Cube, num_vars: usize) -> Cover {
    let mut out = Vec::new();
    push_complement_cube(&mut out, c);
    Cover::from_cubes(num_vars, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tautology::{cover_equal, is_tautology};

    fn lit(v: usize, p: bool) -> Cube {
        Cube::literal(v, p)
    }

    #[test]
    fn complement_of_constants() {
        assert!(is_tautology(&complement(&Cover::empty(3))));
        assert!(complement(&Cover::one(3)).is_empty());
    }

    #[test]
    fn complement_of_cube() {
        // (ab)' = a' + b'.
        let f = Cover::from_cubes(2, [lit(0, true).intersect(lit(1, true))]);
        let g = complement(&f);
        let expect = Cover::from_cubes(2, [lit(0, false), lit(1, false)]);
        assert!(cover_equal(&g, &expect));
    }

    #[test]
    fn complement_partitions_space() {
        let cases = [
            Cover::from_cubes(3, [lit(0, true), lit(1, false).intersect(lit(2, true))]),
            Cover::from_minterms(3, &[1, 3, 5]),
            Cover::from_cubes(
                4,
                [
                    lit(0, true).intersect(lit(3, false)),
                    lit(1, true),
                    lit(2, false).intersect(lit(0, false)),
                ],
            ),
        ];
        for f in &cases {
            let fc = complement(f);
            // f ∪ f' is a tautology; f ∩ f' is empty.
            assert!(is_tautology(&f.or(&fc)), "f={f} f'={fc}");
            let inter = f.and(&fc);
            for m in 0..(1u64 << f.num_vars()) {
                assert!(!inter.covers_point(m), "overlap at {m:b} for {f}");
            }
        }
    }

    #[test]
    fn double_complement_is_identity() {
        let f = Cover::from_cubes(3, [lit(0, true).intersect(lit(1, true)), lit(2, false)]);
        let ff = complement(&complement(&f));
        assert!(cover_equal(&f, &ff));
    }
}
