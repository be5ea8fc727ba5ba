//! The minimization kernels against their references.
//!
//! `Bdd` keeps its nodes in one vector, finds them through an
//! open-addressing table of node ids, caches `and`, `or` and `not` in
//! one lossy direct-mapped table and memoizes the ISOP into one cube
//! arena; `complement` runs one recursion over a single cube buffer.
//! The kernels they replaced are kept in `reference.rs`. Both must give
//! the same cube lists, in the same order:
//!
//! * the diagrams of seeded code lists over 1 to 22 variables, and
//!   their ISOPs `isop(on, on)`, `isop(¬(on ∨ off))` and
//!   `isop(on, ¬off)`, for the seeded functions and for every
//!   non-input signal of the scaled specs, plain and padded, up to
//!   n = 7;
//! * the complements of seeded covers over 1 to 24 variables with up to
//!   40 cubes (duplicates, contained cubes, the top cube and the empty
//!   cover among them), and of the covers that derivation complements
//!   on the corpus: the cube-list don't-care set, each espresso
//!   off-set `on ∪ dc`, and each cube's part that espresso's REDUCE
//!   complements when it starts from the final cover.
//!
//! The `#[ignore]`d half runs the generated families, the scaled specs
//! up to n = 11 and many more seeds; run it in release:
//! `cargo test --release --test kernels -- --ignored`.

mod reference;

use reshuffle::logic::{
    complement, complement_cube, dont_care_isop, mask, minimize, Bdd, Cover, Cube,
};
use reshuffle::{ExpansionOptions, Pipeline, PipelineOptions, ReduceOptions};
use reshuffle_bench::examples;
use reshuffle_handshake::expand_handshakes;
use reshuffle_petri::{parse_g, SignalId};
use reshuffle_sg::nextstate::next_state_tables;
use reshuffle_sg::{build_state_graph, StateGraph};

/// Above this many reachable codes derivation minimizes through the
/// BDD; up to it, through cube lists and `complement`.
const CUBE_LIST_CODES: usize = 4096;

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Disjoint on and off code lists over `nv` variables. Up to 10
/// variables every code is labelled; above, a few clusters of codes
/// that differ only in up to 10 free variables are. Half the seeds
/// label codes at random, half by parity and subcube rules, which
/// share more of the diagram.
fn seeded_function(seed: u64, nv: usize) -> (Vec<u64>, Vec<u64>) {
    let mut rng = Rng(seed);
    let all = mask(nv);
    let mut codes: Vec<u64> = if nv <= 10 {
        (0..=all).collect()
    } else {
        let mut codes = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let mut free = 0u64;
            while free.count_ones() < 10 {
                free |= 1 << rng.below(nv as u64);
            }
            let base = rng.next() & all & !free;
            let mut sub = 0u64;
            loop {
                codes.push(base | sub);
                // The next subset of `free`.
                sub = sub.wrapping_sub(free) & free;
                if sub == 0 {
                    break;
                }
            }
        }
        codes.sort_unstable();
        codes.dedup();
        codes
    };
    let random = rng.below(2) == 0;
    let (parity, sub, dc) = (rng.next() & all, rng.next() & all, rng.next() & all);
    let salt = rng.next();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let (on_weight, off_weight) = (1 + rng.below(4), 1 + rng.below(4));
    for code in codes.drain(..) {
        let h = Rng(code ^ salt).next();
        let label = if random {
            match h % 6 {
                x if x < on_weight => Some(true),
                x if x < on_weight + off_weight => Some(false),
                _ => None,
            }
        } else if dc != 0 && code & dc == dc {
            None
        } else {
            Some(((code & parity).count_ones() % 2 == 0) ^ (sub != 0 && code & sub == sub))
        };
        match label {
            Some(true) => on.push(code),
            Some(false) => off.push(code),
            None => {}
        }
    }
    (on, off)
}

/// Asserts both managers give the same diagram sizes and ISOP cube
/// lists for the function with on-set `on` and off-set `off`, and the
/// same off-set intersections for every cube `isop(on, ¬off)` expands
/// to; returns the number of cubes compared.
fn check_bdd(at: &str, nv: usize, on: &[u64], off: &[u64]) -> usize {
    let mut new = Bdd::new();
    let mut old = reference::Bdd::new();
    let (n_on, o_on) = (new.from_codes(on, nv), old.from_codes(on, nv));
    assert_eq!(new.num_nodes(), old.num_nodes(), "{at}: on-set diagram");
    let (n_off, o_off) = (new.from_codes(off, nv), old.from_codes(off, nv));
    assert_eq!(new.num_nodes(), old.num_nodes(), "{at}: off-set diagram");
    let n_care = new.or(n_on, n_off);
    let o_care = old.or(o_on, o_off);
    let (n_dc, o_dc) = (new.not(n_care), old.not(o_care));
    let (n_up, o_up) = (new.not(n_off), old.not(o_off));
    let mut compared = 0;
    for (what, (n_lower, n_upper), (o_lower, o_upper)) in [
        ("isop(on, on)", (n_on, n_on), (o_on, o_on)),
        ("isop(dc, dc)", (n_dc, n_dc), (o_dc, o_dc)),
        ("isop(on, ¬off)", (n_on, n_up), (o_on, o_up)),
    ] {
        let (f, cubes) = new.isop(n_lower, n_upper);
        assert_eq!(cubes, old.isop(o_lower, o_upper).1, "{at}: {what}");
        // The returned diagram is the function of the returned cubes.
        assert_eq!(new.from_cover(&Cover::from_cubes(nv, cubes.clone())), f);
        compared += cubes.len();
        if what == "isop(on, ¬off)" {
            for c in cubes {
                for v in c.vars() {
                    let raised = c.with(v, None);
                    let got = new.cube_intersects(n_off, raised);
                    assert_eq!(got, old.cube_intersects(o_off, raised), "{at}: {raised}");
                }
            }
        }
    }
    compared
}

/// The ISOPs of every non-input signal of `sg`, and its don't-care
/// cover; returns the number of cubes compared.
fn check_graph_bdd(at: &str, sg: &StateGraph) -> usize {
    let tables = next_state_tables(sg);
    let nv = tables.num_vars();
    let mut old = reference::Bdd::new();
    let care = old.from_codes(tables.reachable(), nv);
    let outside = old.not(care);
    let want = old.isop(outside, outside).1;
    assert_eq!(
        dont_care_isop(nv, tables.reachable()).cubes(),
        want,
        "{at}: dc"
    );
    let mut compared = want.len();
    for i in 0..sg.num_signals() {
        let signal = SignalId::from_index(i);
        if sg.signal(signal).kind.is_noninput() {
            let t = tables.table(signal);
            let at = format!("{at} {}", sg.signal(signal).name);
            compared += check_bdd(&at, nv, &t.on, &t.off);
        }
    }
    compared
}

fn check_complement(at: &str, f: &Cover) -> Cover {
    let got = complement(f);
    assert_eq!(got, reference::complement(f), "{at}: complement of {f}");
    got
}

/// The covers derivation complements on `sg`'s cube-list path: the
/// don't-care set of the unreachable codes (or of a conflicting
/// signal's own), each espresso off-set `on ∪ dc`, and, for each cube
/// `c` of the minimized cover `f`, REDUCE's `(f - c) ∪ dc` cofactored
/// by `c`. Returns the number of covers compared.
fn check_graph_complements(at: &str, sg: &StateGraph) -> usize {
    let tables = next_state_tables(sg);
    let nv = tables.num_vars();
    if tables.reachable().len() > CUBE_LIST_CODES {
        return 0;
    }
    let shared = check_complement(at, &Cover::from_minterms(nv, tables.reachable()));
    let mut compared = 1;
    for i in 0..sg.num_signals() {
        let signal = SignalId::from_index(i);
        if !sg.signal(signal).kind.is_noninput() {
            continue;
        }
        let t = tables.table(signal);
        let at = format!("{at} {}", sg.signal(signal).name);
        let own;
        let dc = if t.is_conflict_free() {
            &shared
        } else {
            let care = [&t.on[..], &t.off].concat();
            own = check_complement(&at, &Cover::from_minterms(nv, &care));
            compared += 1;
            &own
        };
        let on = Cover::from_minterms(nv, &t.on);
        check_complement(&at, &on.or(dc));
        let f = minimize(&on, dc);
        for (i, &c) in f.cubes().iter().enumerate() {
            let others = f.cubes().iter().enumerate().filter(|&(j, _)| j != i);
            let rest = Cover::from_cubes(nv, others.map(|(_, &x)| x)).or(dc);
            check_complement(&at, &rest.cofactor_cube(c));
        }
        compared += 1 + f.len();
    }
    compared
}

/// A seeded cover over 1 to 24 variables with up to 40 cubes: random
/// cubes (sparse or dense), duplicates, cubes contained in earlier
/// ones, now and then the top cube (last), and the empty cover.
fn seeded_cover(seed: u64) -> Cover {
    let mut rng = Rng(seed);
    let nv = 1 + rng.below(24) as usize;
    let all = mask(nv);
    let len = rng.below(41) as usize;
    // Each literal is present with probability `density` / 8.
    let density = 2 + rng.below(7);
    let mut cubes: Vec<Cube> = Vec::with_capacity(len);
    for _ in 0..len {
        let cube = match rng.below(16) {
            0 if !cubes.is_empty() => cubes[rng.below(cubes.len() as u64) as usize],
            1 | 2 if !cubes.is_empty() => {
                let c = cubes[rng.below(cubes.len() as u64) as usize];
                let v = rng.below(nv as u64) as usize;
                if c.get(v).is_some() {
                    c
                } else {
                    c.with(v, Some(rng.below(2) == 0))
                }
            }
            _ => {
                let mut used = 0u64;
                for v in 0..nv {
                    if rng.below(8) < density {
                        used |= 1 << v;
                    }
                }
                let pos = rng.next() & used & all;
                Cube {
                    pos,
                    neg: used & !pos,
                }
            }
        };
        cubes.push(cube);
    }
    if rng.below(32) == 0 {
        cubes.push(Cube::top());
    }
    Cover::from_cubes(nv, cubes)
}

/// [`check_complement`] on `count` seeded covers from `first`, and
/// `complement_cube` on each cover's first cube.
fn check_seeded_covers(first: u64, count: u64) {
    let (mut empty, mut top, mut largest) = (0, 0, 0);
    for seed in first..first + count {
        let f = seeded_cover(seed);
        let at = format!("seed {seed}");
        let got = check_complement(&at, &f);
        empty += usize::from(f.is_empty());
        top += usize::from(f.cubes().iter().any(|c| c.is_top()));
        largest = largest.max(got.len());
        if let Some(&c) = f.cubes().first() {
            let want = Cover::from_cubes(f.num_vars(), reference::complement_cube(c));
            assert_eq!(complement_cube(c, f.num_vars()), want, "{at}: {c}");
        }
    }
    // The generator reaches the edge cases and sizable complements.
    assert!(
        empty > 0 && top > 0,
        "{empty} empty, {top} with the top cube"
    );
    assert!(largest >= 100, "largest complement: {largest} cubes");
}

/// The graphs derivation minimizes on the corpus: each spec's own
/// graph (each reshuffling of a partial one), and the final graph of
/// each pipeline mode (expansion, reduce, both, neither).
fn corpus_graphs() -> Vec<(String, StateGraph)> {
    let expand = ExpansionOptions::default();
    let reduce = ReduceOptions::default();
    let modes = [
        ("default", PipelineOptions::new()),
        ("reduce", PipelineOptions::new().with_reduce(reduce.clone())),
        ("expand", PipelineOptions::new().with_expand(expand.clone())),
        (
            "exp+red",
            PipelineOptions::new()
                .with_expand(expand.clone())
                .with_reduce(reduce),
        ),
    ];
    let mut graphs = Vec::new();
    for (name, src) in examples::ALL {
        graphs.extend(spec_graphs(name, src, &expand));
        for (mode, opts) in &modes {
            if let Ok(done) = Pipeline::from_g(src).and_then(|p| p.run(opts)) {
                graphs.push((format!("{name} {mode}"), done.into_synthesis().sg));
            }
        }
    }
    graphs
}

/// `src`'s graph, or every reshuffling of it when it is partial.
fn spec_graphs(name: &str, src: &str, opts: &ExpansionOptions) -> Vec<(String, StateGraph)> {
    let spec = parse_g(src).unwrap();
    if spec.is_partial() {
        let rs = expand_handshakes(&spec, opts).unwrap();
        rs.into_iter()
            .enumerate()
            .map(|(i, r)| (format!("{name}#{i}"), r.sg))
            .collect()
    } else {
        vec![(name.to_string(), build_state_graph(&spec).unwrap())]
    }
}

/// The scaled spec at `n`, plain and dummy-padded; the padded graph
/// keeps its dummy events, which excite no signal.
fn scaled_graphs(n: usize) -> [(String, StateGraph); 2] {
    [
        (format!("scaled{n}"), examples::scaled_pipeline(n)),
        (format!("padded{n}"), examples::scaled_pipeline_padded(n)),
    ]
    .map(|(at, src)| (at, build_state_graph(&parse_g(&src).unwrap()).unwrap()))
}

#[test]
fn isop_matches_the_reference_on_seeded_functions() {
    let mut cubes = 0;
    for nv in 1..=22 {
        for k in 0..4 {
            let seed = (nv as u64) << 8 | k;
            let (on, off) = seeded_function(seed, nv);
            cubes += check_bdd(&format!("{nv} vars, seed {seed}"), nv, &on, &off);
        }
    }
    assert!(cubes >= 10_000, "too few cubes compared: {cubes}");
}

#[test]
fn isop_matches_the_reference_on_the_scaled_specs() {
    let mut graphs = 0;
    for (at, sg) in (1..=7).flat_map(scaled_graphs) {
        check_graph_bdd(&at, &sg);
        graphs += 1;
    }
    assert_eq!(graphs, 14);
}

#[test]
fn complement_matches_the_reference_on_seeded_covers() {
    check_seeded_covers(0, 1_000);
}

#[test]
fn complement_matches_the_reference_on_the_corpus_derivations() {
    let mut covers = 0;
    let graphs = corpus_graphs();
    for (at, sg) in &graphs {
        covers += check_graph_complements(at, sg);
    }
    for (at, sg) in (1..=6).flat_map(scaled_graphs) {
        covers += check_graph_complements(&at, &sg);
    }
    assert!(graphs.len() >= 40, "too few graphs: {}", graphs.len());
    assert!(covers >= 400, "too few covers compared: {covers}");
}

/// The families and the scaled trajectory; run in release:
/// `cargo test --release --test kernels -- --ignored`.
#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn kernels_match_the_references_on_the_families_and_the_scaled_trajectory() {
    let mut families: Vec<(String, String)> = (1..=3)
        .map(|k| (format!("twochan{k}"), examples::two_channel(k)))
        .collect();
    for k in 2..=3 {
        families.push((format!("pulses-s{k}"), examples::pulses(k, false)));
        families.push((format!("pulses-c{k}"), examples::pulses(k, true)));
        families.push((format!("ring{k}"), examples::ring(k)));
    }
    let all = ExpansionOptions {
        max_reshufflings: 4096,
    };
    let (mut graphs, mut covers) = (0, 0);
    for (name, src) in &families {
        for (at, sg) in spec_graphs(name, src, &all) {
            covers += check_graph_complements(&at, &sg);
            check_graph_bdd(&at, &sg);
            graphs += 1;
        }
    }
    for (at, sg) in (8..=9).flat_map(scaled_graphs) {
        check_graph_bdd(&at, &sg);
    }
    // The raw padded graphs have 2·4^n + 2 states: plain only above 9.
    for n in 10..=11 {
        let sg = build_state_graph(&parse_g(&examples::scaled_pipeline(n)).unwrap()).unwrap();
        check_graph_bdd(&format!("scaled{n}"), &sg);
    }
    assert!(graphs >= 225, "too few family graphs: {graphs}");
    assert!(covers >= 2_000, "too few covers compared: {covers}");
}

/// Many more seeds of both generators; run in release.
#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn kernels_match_the_references_on_many_seeds() {
    check_seeded_covers(1_000, 200_000);
    for nv in 1..=22 {
        for k in 4..140 {
            let seed = (nv as u64) << 8 | k;
            let (on, off) = seeded_function(seed, nv);
            check_bdd(&format!("{nv} vars, seed {seed}"), nv, &on, &off);
        }
    }
}
