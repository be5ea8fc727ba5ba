//! A reduced ordered BDD manager on flat tables.
//!
//! It backs the scalable minimizer of [`crate::interval`]: code lists
//! become diagrams ([`Bdd::from_codes`]), the Minato–Morreale interval
//! ISOP ([`Bdd::isop`]) extracts their covers, and [`Bdd::from_cover`],
//! [`Bdd::cube_intersects`] and the Boolean operations polish and check
//! the result. The variable order is the natural index order; our
//! functions are small enough that reordering is unnecessary.
//!
//! Every table is a flat vector, and no per-node path hashes through a
//! `HashMap`:
//!
//! * the nodes live in one `Vec`, and the unique table is an
//!   open-addressing `Vec<u32>` of node ids (linear probing, at most
//!   half full, the slot picked by the top bits of a seeded
//!   multiplicative hash);
//! * `and`, `or` and `not` share one direct-mapped computed table with
//!   half as many slots as the unique table. It is lossy: a colliding
//!   result overwrites the older one. That is safe because the diagram
//!   is canonical, so a lost entry only costs a recomputation;
//! * [`Bdd::isop`] memoizes each `(lower, upper)` pair as a span of one
//!   cube arena.
//!
//! The ISOP's cube list depends only on the two functions and the
//! variable order, never on node ids or on which results the computed
//! table kept.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::ops::Range;

use crate::cover::Cover;
use crate::cube::Cube;

/// Reference to a BDD node (0 = constant false, 1 = constant true).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(pub u32);

/// Constant false.
pub const FALSE: NodeRef = NodeRef(0);
/// Constant true.
pub const TRUE: NodeRef = NodeRef(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    var: u32,
    lo: NodeRef,
    hi: NodeRef,
}

/// One computed-table slot: `op` of `a` and `b` is `r` (`op` 0: free).
#[derive(Debug, Clone, Copy, Default)]
struct Computed {
    op: u32,
    a: u32,
    b: u32,
    r: u32,
}

const AND: u32 = 1;
const OR: u32 = 2;
const NOT: u32 = 3;

/// The hash multiplier (2^64 over the golden ratio, odd).
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// log2 of a new manager's unique-table slots.
const INITIAL_BITS: u32 = 8;

/// A seeded multiplicative hash of two words; callers take its top bits.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    ((seed ^ a).wrapping_mul(MIX) ^ b).wrapping_mul(MIX)
}

fn pair(a: u32, b: u32) -> u64 {
    u64::from(a) | (u64::from(b) << 32)
}

/// Open addressing over `u32` ids whose keys live elsewhere: linear
/// probing from the top bits of the key's hash, at most half full, 0
/// marking a free slot.
#[derive(Debug)]
struct Slots {
    ids: Vec<u32>,
    /// `64 - log2(ids.len())`.
    shift: u32,
}

impl Slots {
    fn new(bits: u32) -> Slots {
        Slots {
            ids: vec![0; 1 << bits],
            shift: 64 - bits,
        }
    }

    /// The id that `is_key` accepts, or the free slot where it belongs.
    fn find(&self, hash: u64, is_key: impl Fn(u32) -> bool) -> Result<u32, usize> {
        let mask = self.ids.len() - 1;
        let mut i = (hash >> self.shift) as usize;
        loop {
            match self.ids[i] {
                0 => return Err(i),
                id if is_key(id) => return Ok(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Puts `ids.end - 1`, the newest id, into the free `slot` that
    /// [`Slots::find`] returned. When that leaves the table more than
    /// half full, doubles it, enters all of `ids` again by `hash`, and
    /// returns true.
    fn insert(&mut self, slot: usize, ids: Range<u32>, hash: impl Fn(u32) -> u64) -> bool {
        self.ids[slot] = ids.end - 1;
        if 2 * ids.len() <= self.ids.len() {
            return false;
        }
        // The keys live elsewhere: free the old slots first.
        let len = 2 * self.ids.len();
        self.ids = Vec::new();
        self.ids = vec![0; len];
        self.shift -= 1;
        for id in ids {
            let mut i = (hash(id) >> self.shift) as usize;
            while self.ids[i] != 0 {
                i = (i + 1) & (len - 1);
            }
            self.ids[i] = id;
        }
        true
    }
}

/// A BDD manager: owns the node table and operation caches.
#[derive(Debug)]
pub struct Bdd {
    nodes: Vec<Node>,
    /// The unique table: every node but the two constants, by
    /// `(var, lo, hi)`.
    unique: Slots,
    /// Direct-mapped, half the unique table's length.
    computed: Vec<Computed>,
    /// The hashes' random start: codes follow from input specs, and a
    /// fixed hash would let a crafted spec pile its nodes into one run
    /// of slots.
    seed: u64,
    /// [`Bdd::cube_intersects`]'s marks: the walk stamped `walk` found
    /// no point of the cube below the nodes it marked.
    missed: Vec<u32>,
    walk: u32,
}

impl Default for Bdd {
    fn default() -> Bdd {
        Bdd::new()
    }
}

impl Bdd {
    /// Creates a manager with the two constant nodes.
    pub fn new() -> Bdd {
        Bdd {
            nodes: vec![
                Node {
                    var: u32::MAX,
                    lo: FALSE,
                    hi: FALSE,
                },
                Node {
                    var: u32::MAX,
                    lo: TRUE,
                    hi: TRUE,
                },
            ],
            unique: Slots::new(INITIAL_BITS),
            computed: vec![Computed::default(); 1 << (INITIAL_BITS - 1)],
            seed: RandomState::new().hash_one(0u64),
            missed: Vec::new(),
            walk: 0,
        }
    }

    /// Number of live nodes (including the constants).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn mk(&mut self, var: u32, lo: NodeRef, hi: NodeRef) -> NodeRef {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        let (seed, nodes) = (self.seed, &self.nodes);
        let hash = |n: Node| mix(seed, u64::from(n.var), pair(n.lo.0, n.hi.0));
        let slot = match self
            .unique
            .find(hash(node), |id| nodes[id as usize] == node)
        {
            Ok(id) => return NodeRef(id),
            Err(slot) => slot,
        };
        self.nodes.push(node);
        let nodes = &self.nodes;
        let ids = 2..nodes.len() as u32;
        if self.unique.insert(slot, ids, |id| hash(nodes[id as usize])) {
            self.grow_computed();
        }
        NodeRef(self.nodes.len() as u32 - 1)
    }

    /// Keeps the computed table at half the unique table's length,
    /// entering the old results again.
    fn grow_computed(&mut self) {
        let old = std::mem::replace(
            &mut self.computed,
            vec![Computed::default(); self.unique.ids.len() / 2],
        );
        for e in old.into_iter().filter(|e| e.op != 0) {
            let slot = self.computed_slot(e.op, e.a, e.b);
            self.computed[slot] = e;
        }
    }

    fn computed_slot(&self, op: u32, a: u32, b: u32) -> usize {
        (mix(self.seed, u64::from(op), pair(a, b)) >> (self.unique.shift + 1)) as usize
    }

    fn lookup(&self, op: u32, a: NodeRef, b: NodeRef) -> Option<NodeRef> {
        let e = self.computed[self.computed_slot(op, a.0, b.0)];
        (e.op == op && e.a == a.0 && e.b == b.0).then_some(NodeRef(e.r))
    }

    fn store(&mut self, op: u32, a: NodeRef, b: NodeRef, r: NodeRef) {
        let slot = self.computed_slot(op, a.0, b.0);
        self.computed[slot] = Computed {
            op,
            a: a.0,
            b: b.0,
            r: r.0,
        };
    }

    /// The function of a single literal.
    pub fn literal(&mut self, v: usize, phase: bool) -> NodeRef {
        if phase {
            self.mk(v as u32, FALSE, TRUE)
        } else {
            self.mk(v as u32, TRUE, FALSE)
        }
    }

    fn var_of(&self, r: NodeRef) -> u32 {
        self.nodes[r.0 as usize].var
    }

    fn cof(&self, r: NodeRef, var: u32, value: bool) -> NodeRef {
        let n = self.nodes[r.0 as usize];
        if r.0 <= 1 || n.var != var {
            r
        } else if value {
            n.hi
        } else {
            n.lo
        }
    }

    /// Conjunction.
    pub fn and(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        if a == FALSE || b == FALSE {
            return FALSE;
        }
        if a == TRUE {
            return b;
        }
        if b == TRUE || a == b {
            return a;
        }
        self.apply(AND, a, b)
    }

    /// Disjunction.
    pub fn or(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        if a == TRUE || b == TRUE {
            return TRUE;
        }
        if a == FALSE {
            return b;
        }
        if b == FALSE || a == b {
            return a;
        }
        self.apply(OR, a, b)
    }

    /// `and` or `or` of two distinct non-constant nodes.
    fn apply(&mut self, op: u32, a: NodeRef, b: NodeRef) -> NodeRef {
        let (a, b) = (a.min(b), a.max(b));
        if let Some(r) = self.lookup(op, a, b) {
            return r;
        }
        let v = self.var_of(a).min(self.var_of(b));
        let (a0, a1) = (self.cof(a, v, false), self.cof(a, v, true));
        let (b0, b1) = (self.cof(b, v, false), self.cof(b, v, true));
        let (lo, hi) = if op == AND {
            (self.and(a0, b0), self.and(a1, b1))
        } else {
            (self.or(a0, b0), self.or(a1, b1))
        };
        let r = self.mk(v, lo, hi);
        self.store(op, a, b, r);
        r
    }

    /// Negation.
    pub fn not(&mut self, a: NodeRef) -> NodeRef {
        if a == TRUE {
            return FALSE;
        }
        if a == FALSE {
            return TRUE;
        }
        if let Some(r) = self.lookup(NOT, a, FALSE) {
            return r;
        }
        let n = self.nodes[a.0 as usize];
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.store(NOT, a, FALSE, r);
        r
    }

    /// Builds the BDD of a [`Cover`].
    pub fn from_cover(&mut self, f: &Cover) -> NodeRef {
        let mut acc = FALSE;
        for &c in f.cubes() {
            let mut term = TRUE;
            for v in c.vars() {
                let lit = self.literal(v, c.get(v) == Some(true));
                term = self.and(term, lit);
            }
            acc = self.or(acc, term);
        }
        acc
    }

    /// Builds the BDD of a set of minterms over `num_vars` variables.
    ///
    /// This is the scalable alternative to
    /// [`Cover::from_minterms`] + [`Bdd::from_cover`] when the minterm
    /// list is large (state-graph next-state tables with ~10⁶ codes):
    /// the codes are sorted once and the diagram is built by recursive
    /// slice splitting, so shared suffixes are constructed exactly once.
    pub fn from_codes(&mut self, codes: &[u64], num_vars: usize) -> NodeRef {
        assert!(num_vars <= 64);
        if num_vars == 0 {
            return if codes.is_empty() { FALSE } else { TRUE };
        }
        let mut sorted: Vec<u64> = codes.to_vec();
        // Sort by bit-reversed value so that at recursion depth `v` the
        // slice splits contiguously on bit `v` (the next-most-significant
        // bit of the reversed key).
        sorted.sort_unstable_by_key(|&c| c.reverse_bits() >> (64 - num_vars));
        sorted.dedup();
        self.build_sorted_codes(&sorted, 0, num_vars)
    }

    fn build_sorted_codes(&mut self, codes: &[u64], var: usize, num_vars: usize) -> NodeRef {
        if codes.is_empty() {
            return FALSE;
        }
        if var == num_vars {
            return TRUE;
        }
        let split = codes.partition_point(|&c| (c >> var) & 1 == 0);
        let lo = self.build_sorted_codes(&codes[..split], var + 1, num_vars);
        let hi = self.build_sorted_codes(&codes[split..], var + 1, num_vars);
        self.mk(var as u32, lo, hi)
    }

    /// True if the function has at least one satisfying point inside
    /// `cube` — the off-set oracle of BDD-backed cube expansion.
    pub fn cube_intersects(&mut self, r: NodeRef, cube: Cube) -> bool {
        // Marking the nodes a walk found no point below is sound because
        // the cube is fixed for the whole walk; without the marks the
        // search is worst-case exponential. A new stamp per walk clears
        // them all at once.
        self.missed.resize(self.nodes.len(), 0);
        self.walk = self.walk.wrapping_add(1);
        if self.walk == 0 {
            self.missed.fill(0);
            self.walk = 1;
        }
        self.intersects_rec(r, cube)
    }

    fn intersects_rec(&mut self, r: NodeRef, cube: Cube) -> bool {
        if r.0 <= 1 {
            return r == TRUE;
        }
        if self.missed[r.0 as usize] == self.walk {
            return false;
        }
        let n = self.nodes[r.0 as usize];
        let hit = match cube.get(n.var as usize) {
            Some(false) => self.intersects_rec(n.lo, cube),
            Some(true) => self.intersects_rec(n.hi, cube),
            None => self.intersects_rec(n.lo, cube) || self.intersects_rec(n.hi, cube),
        };
        if !hit {
            self.missed[r.0 as usize] = self.walk;
        }
        hit
    }

    /// Minato–Morreale irredundant sum-of-products over the interval
    /// `lower ⊆ f ⊆ upper`: returns the cubes of an irredundant cover
    /// `f` together with its BDD. Runs in time polynomial in the BDD
    /// sizes — independent of how many minterms the interval contains.
    ///
    /// # Panics
    ///
    /// Debug-asserts `lower ⊆ upper`.
    pub fn isop(&mut self, lower: NodeRef, upper: NodeRef) -> (NodeRef, Vec<Cube>) {
        debug_assert!(
            {
                let nu = self.not(upper);
                self.and(lower, nu) == FALSE
            },
            "isop requires lower ⊆ upper"
        );
        let mut memo = IsopMemo::new(self.seed);
        let (f, span) = self.isop_rec(lower, upper, &mut memo);
        (f, memo.cubes[span].to_vec())
    }

    fn isop_rec(
        &mut self,
        lower: NodeRef,
        upper: NodeRef,
        memo: &mut IsopMemo,
    ) -> (NodeRef, Range<usize>) {
        if lower == FALSE {
            return (FALSE, 0..0);
        }
        if upper == TRUE {
            // The arena's first cube is the top cube.
            return (TRUE, 0..1);
        }
        if let Ok(id) = memo.find(lower, upper) {
            let e = &memo.entries[id as usize];
            return (e.f, e.cubes.clone());
        }
        let v = self.var_of(lower).min(self.var_of(upper));
        let (l0, l1) = (self.cof(lower, v, false), self.cof(lower, v, true));
        let (u0, u1) = (self.cof(upper, v, false), self.cof(upper, v, true));
        // Points only coverable with the v' (resp. v) literal.
        let nu1 = self.not(u1);
        let need0 = self.and(l0, nu1);
        let (g0, c0) = self.isop_rec(need0, u0, memo);
        let nu0 = self.not(u0);
        let need1 = self.and(l1, nu0);
        let (g1, c1) = self.isop_rec(need1, u1, memo);
        // Remainder: lower points neither half covered, coverable by
        // cubes independent of v.
        let ng0 = self.not(g0);
        let ng1 = self.not(g1);
        let rem0 = self.and(l0, ng0);
        let rem1 = self.and(l1, ng1);
        let rem = self.or(rem0, rem1);
        let ud = self.and(u0, u1);
        let (gd, cd) = self.isop_rec(rem, ud, memo);
        // f = v'·g0 + v·g1 + gd, where no part depends on v or on an
        // earlier variable.
        let f0 = self.or(g0, gd);
        let f1 = self.or(g1, gd);
        let f = self.mk(v, f0, f1);
        let cubes = if c0.is_empty() && c1.is_empty() {
            cd
        } else {
            let arena = &mut memo.cubes;
            let start = arena.len();
            for (range, phase) in [(c0, false), (c1, true)] {
                let lit = Cube::literal(v as usize, phase);
                for i in range {
                    arena.push(arena[i].intersect(lit));
                }
            }
            arena.extend_from_within(cd);
            start..arena.len()
        };
        memo.insert(IsopEntry {
            lower,
            upper,
            f,
            cubes: cubes.clone(),
        });
        (f, cubes)
    }
}

/// One [`Bdd::isop`] call's memo: every solved `(lower, upper)` pair
/// with its function and its cubes, a span of one arena.
struct IsopMemo {
    /// Entry ids from 1 (0 marks a free slot) by `(lower, upper)`.
    slots: Slots,
    entries: Vec<IsopEntry>,
    /// Starts with the top cube, the cover of `upper == TRUE`.
    cubes: Vec<Cube>,
    /// The manager's hash seed.
    seed: u64,
}

struct IsopEntry {
    lower: NodeRef,
    upper: NodeRef,
    f: NodeRef,
    cubes: Range<usize>,
}

impl IsopMemo {
    fn new(seed: u64) -> IsopMemo {
        IsopMemo {
            slots: Slots::new(INITIAL_BITS),
            entries: vec![IsopEntry {
                lower: FALSE,
                upper: FALSE,
                f: FALSE,
                cubes: 0..0,
            }],
            cubes: vec![Cube::top()],
            seed,
        }
    }

    /// The entry id of `(lower, upper)`, or the free slot where it belongs.
    fn find(&self, lower: NodeRef, upper: NodeRef) -> Result<u32, usize> {
        let hash = mix(self.seed, u64::from(lower.0), u64::from(upper.0));
        self.slots.find(hash, |id| {
            let e = &self.entries[id as usize];
            e.lower == lower && e.upper == upper
        })
    }

    /// Enters a pair that [`IsopMemo::find`] does not hold.
    fn insert(&mut self, e: IsopEntry) {
        let Err(slot) = self.find(e.lower, e.upper) else {
            unreachable!("a pair is solved once");
        };
        self.entries.push(e);
        let (seed, entries) = (self.seed, &self.entries);
        self.slots.insert(slot, 1..entries.len() as u32, |id| {
            let e = &entries[id as usize];
            mix(seed, u64::from(e.lower.0), u64::from(e.upper.0))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;

    /// The function's value at a point.
    fn eval(b: &Bdd, mut r: NodeRef, code: u64) -> bool {
        while r.0 > 1 {
            let n = b.nodes[r.0 as usize];
            r = if (code >> n.var) & 1 == 1 { n.hi } else { n.lo };
        }
        r == TRUE
    }

    /// Satisfying points over `num_vars` variables, counted point by point.
    fn count_points(b: &Bdd, r: NodeRef, num_vars: usize) -> usize {
        (0..1u64 << num_vars).filter(|&c| eval(b, r, c)).count()
    }

    #[test]
    fn basics() {
        let mut b = Bdd::new();
        let x = b.literal(0, true);
        let y = b.literal(1, true);
        let xy = b.and(x, y);
        assert!(eval(&b, xy, 0b11));
        assert!(!eval(&b, xy, 0b01));
        let nx = b.not(x);
        assert_eq!(nx, b.literal(0, false));
        let taut = b.or(x, nx);
        assert_eq!(taut, TRUE);
        let contra = b.and(x, nx);
        assert_eq!(contra, FALSE);
    }

    #[test]
    fn canonical_equality() {
        let mut b = Bdd::new();
        let x = b.literal(0, true);
        let y = b.literal(1, true);
        // x or y built two ways gives the same node.
        let a = b.or(x, y);
        let ny = b.not(y);
        let nx = b.not(x);
        let both_off = b.and(nx, ny);
        let c = b.not(both_off);
        assert_eq!(a, c);
    }

    #[test]
    fn xor_truth() {
        let mut b = Bdd::new();
        let x = b.literal(0, true);
        let y = b.literal(1, true);
        let (nx, ny) = (b.not(x), b.not(y));
        let (l, r) = (b.and(x, ny), b.and(nx, y));
        let f = b.or(l, r);
        assert!(!eval(&b, f, 0b00));
        assert!(eval(&b, f, 0b01));
        assert!(eval(&b, f, 0b10));
        assert!(!eval(&b, f, 0b11));
    }

    #[test]
    fn from_cover_matches_eval() {
        let f = Cover::from_cubes(
            3,
            [
                Cube::literal(0, true).intersect(Cube::literal(1, false)),
                Cube::literal(2, true),
            ],
        );
        let mut b = Bdd::new();
        let r = b.from_cover(&f);
        for code in 0..8u64 {
            assert_eq!(eval(&b, r, code), f.covers_point(code));
        }
    }

    #[test]
    fn sat_count() {
        let mut b = Bdd::new();
        let x = b.literal(0, true);
        let y = b.literal(1, true);
        let f = b.or(x, y);
        assert_eq!(count_points(&b, f, 2), 3);
        assert_eq!(count_points(&b, TRUE, 3), 8);
        assert_eq!(count_points(&b, FALSE, 3), 0);
        let g = b.and(x, y);
        assert_eq!(count_points(&b, g, 2), 1);
        // With an extra free variable the counts double.
        assert_eq!(count_points(&b, g, 3), 2);
    }

    #[test]
    fn tables_grow_and_keep_every_node() {
        // A scrambled function of 12 variables: hundreds of nodes, so the
        // unique and computed tables double while the diagram and its
        // ISOP are built.
        let nv = 12;
        let on = |c: u64| mix(0, c, c >> 5) >> 63 == 1;
        let codes: Vec<u64> = (0..1u64 << nv).filter(|&c| on(c)).collect();
        let mut b = Bdd::new();
        let f = b.from_codes(&codes, nv);
        assert!(b.num_nodes() > 1 << INITIAL_BITS, "{}", b.num_nodes());
        let (g, cubes) = b.isop(f, f);
        assert_eq!(g, f);
        let cover = Cover::from_cubes(nv, cubes);
        for c in 0..1u64 << nv {
            assert_eq!(eval(&b, f, c), on(c));
            assert_eq!(cover.covers_point(c), on(c));
            assert_eq!(b.cube_intersects(f, Cube::minterm(c, nv)), on(c));
        }
    }
}
