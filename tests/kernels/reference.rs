//! The two minimization kernels that the flat-table `Bdd` and the
//! one-buffer `complement` replaced, kept as references: a BDD manager
//! whose unique table and operation caches are `HashMap`s and whose
//! ISOP memo clones a cube vector per entry, and the Shannon
//! complement that allocates two cofactor covers per call, merges them
//! with `Vec::contains` and weeds the merge.

use std::collections::HashMap;

use reshuffle::logic::{Cover, Cube, MAX_VARS};

/// A node of the reference manager (0 = constant false, 1 = constant
/// true).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(pub u32);

/// Constant false.
pub const FALSE: NodeRef = NodeRef(0);
/// Constant true.
pub const TRUE: NodeRef = NodeRef(1);

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: NodeRef,
    hi: NodeRef,
}

/// A BDD manager: owns the node table and operation caches.
#[derive(Debug, Default)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: HashMap<(u32, NodeRef, NodeRef), NodeRef>,
    and_cache: HashMap<(NodeRef, NodeRef), NodeRef>,
    or_cache: HashMap<(NodeRef, NodeRef), NodeRef>,
    not_cache: HashMap<NodeRef, NodeRef>,
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
            ..Default::default()
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
        if let Some(&r) = self.unique.get(&(var, lo, hi)) {
            return r;
        }
        let r = NodeRef(self.nodes.len() as u32);
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert((var, lo, hi), r);
        r
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
        let key = (a.min(b), a.max(b));
        if let Some(&r) = self.and_cache.get(&key) {
            return r;
        }
        let v = self.var_of(a).min(self.var_of(b));
        let (a0, a1) = (self.cof(a, v, false), self.cof(a, v, true));
        let (b0, b1) = (self.cof(b, v, false), self.cof(b, v, true));
        let lo = self.and(a0, b0);
        let hi = self.and(a1, b1);
        let r = self.mk(v, lo, hi);
        self.and_cache.insert(key, r);
        r
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
        let key = (a.min(b), a.max(b));
        if let Some(&r) = self.or_cache.get(&key) {
            return r;
        }
        let v = self.var_of(a).min(self.var_of(b));
        let (a0, a1) = (self.cof(a, v, false), self.cof(a, v, true));
        let (b0, b1) = (self.cof(b, v, false), self.cof(b, v, true));
        let lo = self.or(a0, b0);
        let hi = self.or(a1, b1);
        let r = self.mk(v, lo, hi);
        self.or_cache.insert(key, r);
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
        if let Some(&r) = self.not_cache.get(&a) {
            return r;
        }
        let n = self.nodes[a.0 as usize];
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.not_cache.insert(a, r);
        r
    }

    /// Builds the BDD of a set of minterms over `num_vars` variables.
    ///
    /// This is the scalable alternative to
    /// [`Cover::from_minterms`] + [`Bdd::from_cover`] when the minterm
    /// list is large (state-graph next-state tables with ~10⁶ codes):
    /// the codes are sorted once and the diagram is built by recursive
    /// slice splitting, so shared suffixes are constructed exactly once.
    #[allow(clippy::wrong_self_convention)] // `Bdd::from_codes`'s name
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
    pub fn cube_intersects(&self, r: NodeRef, cube: Cube) -> bool {
        fn rec(bdd: &Bdd, r: NodeRef, cube: Cube, memo: &mut HashMap<NodeRef, bool>) -> bool {
            if r == FALSE {
                return false;
            }
            if r == TRUE {
                return true;
            }
            if let Some(&hit) = memo.get(&r) {
                return hit;
            }
            let n = bdd.nodes[r.0 as usize];
            let hit = match cube.get(n.var as usize) {
                Some(false) => rec(bdd, n.lo, cube, memo),
                Some(true) => rec(bdd, n.hi, cube, memo),
                None => rec(bdd, n.lo, cube, memo) || rec(bdd, n.hi, cube, memo),
            };
            memo.insert(r, hit);
            hit
        }
        // The memo is sound because the cube constraint is fixed for the
        // whole walk; without it the search is worst-case exponential.
        rec(self, r, cube, &mut HashMap::new())
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
        let mut memo = HashMap::new();
        self.isop_rec(lower, upper, &mut memo)
    }

    #[allow(clippy::type_complexity)]
    fn isop_rec(
        &mut self,
        lower: NodeRef,
        upper: NodeRef,
        memo: &mut HashMap<(NodeRef, NodeRef), (NodeRef, Vec<Cube>)>,
    ) -> (NodeRef, Vec<Cube>) {
        if lower == FALSE {
            return (FALSE, Vec::new());
        }
        if upper == TRUE {
            return (TRUE, vec![Cube::top()]);
        }
        if let Some(hit) = memo.get(&(lower, upper)) {
            return hit.clone();
        }
        let v = self.var_of(lower).min(self.var_of(upper));
        let (l0, l1) = (self.cof(lower, v, false), self.cof(lower, v, true));
        let (u0, u1) = (self.cof(upper, v, false), self.cof(upper, v, true));
        // Points only coverable with the v' (resp. v) literal.
        let nu1 = self.not(u1);
        let need0 = self.and(l0, nu1);
        let (g0, mut c0) = self.isop_rec(need0, u0, memo);
        let nu0 = self.not(u0);
        let need1 = self.and(l1, nu0);
        let (g1, mut c1) = self.isop_rec(need1, u1, memo);
        // Remainder: lower points neither half covered, coverable by
        // cubes independent of v.
        let ng0 = self.not(g0);
        let ng1 = self.not(g1);
        let rem0 = self.and(l0, ng0);
        let rem1 = self.and(l1, ng1);
        let rem = self.or(rem0, rem1);
        let ud = self.and(u0, u1);
        let (gd, cd) = self.isop_rec(rem, ud, memo);
        let nv = self.literal(v as usize, false);
        let pv = self.literal(v as usize, true);
        let part0 = self.and(nv, g0);
        let part1 = self.and(pv, g1);
        let parts = self.or(part0, part1);
        let f = self.or(parts, gd);
        for c in &mut c0 {
            *c = c.intersect(Cube::literal(v as usize, false));
        }
        for c in &mut c1 {
            *c = c.intersect(Cube::literal(v as usize, true));
        }
        c0.extend(c1);
        c0.extend(cd);
        memo.insert((lower, upper), (f, c0.clone()));
        (f, c0)
    }
}

/// The complement of `f`, as `complement` computed it before.
pub fn complement(f: &Cover) -> Cover {
    Cover::from_cubes(f.num_vars(), comp_rec(f.cubes().to_vec()))
}

fn comp_rec(mut f: Vec<Cube>) -> Vec<Cube> {
    if f.is_empty() {
        return vec![Cube::top()];
    }
    if f.iter().any(|c| c.is_top()) {
        return Vec::new();
    }
    weed(&mut f);
    if f.len() == 1 {
        return complement_cube(f[0]);
    }
    // Split on the most frequent variable.
    let mut counts = [0usize; MAX_VARS];
    for c in &f {
        let mut bits = c.pos | c.neg;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            counts[i] += 1;
            bits &= bits - 1;
        }
    }
    let var = counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap();
    let cofactor = |value| f.iter().filter_map(|c| c.cofactor(var, value)).collect();
    let f0 = comp_rec(cofactor(false));
    let f1 = comp_rec(cofactor(true));
    // complement = x'·f0' + x·f1' with single-cube absorption cleanup.
    let mut out = Vec::new();
    for &c in &f0 {
        // If the same cube appears in both halves it is independent of x.
        if f1.contains(&c) {
            push(&mut out, c);
        } else {
            push(&mut out, c.intersect(Cube::literal(var, false)));
        }
    }
    for &c in &f1 {
        if !f0.contains(&c) {
            push(&mut out, c.intersect(Cube::literal(var, true)));
        }
    }
    weed(&mut out);
    out
}

/// `Cover::push`: empty cubes are dropped.
fn push(out: &mut Vec<Cube>, c: Cube) {
    if !c.is_empty() {
        out.push(c);
    }
}

/// De Morgan complement of a single cube: one cube per literal.
pub fn complement_cube(c: Cube) -> Vec<Cube> {
    let mut out = Vec::new();
    for v in c.vars() {
        match c.get(v) {
            Some(true) => push(&mut out, Cube::literal(v, false)),
            Some(false) => push(&mut out, Cube::literal(v, true)),
            None => {}
        }
    }
    out
}

/// `Cover::weed` as it was: removes cubes covered by another single
/// cube, and duplicates.
pub fn weed(cubes: &mut Vec<Cube>) {
    cubes.sort_unstable();
    cubes.dedup();
    let mut kept: Vec<Cube> = Vec::with_capacity(cubes.len());
    // Wider cubes (fewer literals) first so narrower ones get culled.
    let mut sorted = std::mem::take(cubes);
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
    *cubes = kept;
}
