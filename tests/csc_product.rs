//! Insert == rebuild for the CSC insertion search.
//!
//! The search derives each candidate's state graph from its parent's
//! ([`insert_series_pair`]) instead of building the candidate STG from
//! scratch, and rewrites the STG ([`insert_state_signal`]) only for each
//! round's winner. These suites walk the greedy search, round by round,
//! from every reshuffling of the partial corpus entries and of generated
//! families, and check every ordered pair `(x, y)`: the product refuses
//! exactly the pairs whose rewrite or full build fails, and its graphs
//! equal the full build (`==`: the same codes and arcs under the one
//! state numbering). Each walk must also end where
//! `resolve_csc_analyzed` ends, with the same derived graph: the search
//! keeps each round winner's derived graph and builds none in full.
//!
//! The three searches' counters (lattice, reduce, CSC) are pinned on
//! the small families here, and on `ring3` and `pulses-c3` in the
//! `#[ignore]`d suite, which also runs the larger families and pins the
//! slowest paper-path inputs end to end; run it in release:
//! `cargo test --release --test csc_product -- --ignored`.

use reshuffle::{ExpansionOptions, Pipeline, PipelineOptions, ReduceOptions, Stage};
use reshuffle_bench::examples::{self, CREQ_G, HSLR_G, MFIG1_G, PCREQ_G};
use reshuffle_handshake::{expand_handshakes, expand_handshakes_stats};
use reshuffle_petri::structural::insert_state_signal;
use reshuffle_petri::{parse_g, write_g, Stg, TransitionId};
use reshuffle_reduce::reduce_concurrency_from;
use reshuffle_sg::csc::analyze_csc;
use reshuffle_sg::props::speed_independence;
use reshuffle_sg::restrict::insert_series_pair;
use reshuffle_sg::{build_state_graph, SgError, StateGraph};
use reshuffle_synth::{
    literal_estimate, resolve_csc, resolve_csc_analyzed, resolve_csc_from,
    synthesize_complex_gates, CscOptions,
};

/// Ordered pairs checked, pairs the STG rewrite accepts, and pairs both
/// the rewrite and its full build accept.
#[derive(Debug, Default)]
struct Tally {
    pairs: usize,
    candidates: usize,
    accepted: usize,
}

/// Walks the greedy search from `(stg, sg)`, checking every ordered
/// pair of every round. `deep` also compares the conflict count, the SI
/// verdict and the literal estimate of the two graphs.
fn walk(label: &str, stg: &Stg, sg: &StateGraph, deep: bool, tally: &mut Tally) {
    let opts = CscOptions::default();
    let mut parent = stg.clone();
    let mut parent_sg = sg.clone();
    let mut conflicts = analyze_csc(sg).num_csc_conflicts();
    let mut inserted = 0;
    let mut tried = 0;
    while conflicts > 0 && inserted < opts.max_signals {
        let name = format!("csc{inserted}");
        let transitions: Vec<TransitionId> = parent.transitions().collect();
        let mut feasible: Vec<(usize, TransitionId, TransitionId, StateGraph)> = Vec::new();
        for &x in &transitions {
            for &y in &transitions {
                tally.pairs += 1;
                let at = format!(
                    "{label}: {name} after ({}, {})",
                    parent.transition_name(x),
                    parent.transition_name(y)
                );
                let full = match insert_state_signal(&parent, &name, x, y) {
                    Ok((cand, _, _)) => {
                        tally.candidates += 1;
                        build_state_graph(&cand)
                    }
                    Err(e) => Err(SgError::from(e)),
                };
                let derived = insert_series_pair(&parent_sg, &parent, &name, x, y);
                let (derived, full) = match (derived, full) {
                    (Ok(d), Ok(f)) => (d, f),
                    (Err(_), Err(_)) => continue,
                    (d, f) => panic!("{at}: derived {:?}, full build {:?}", d.err(), f.err()),
                };
                tally.accepted += 1;
                assert!(derived == full, "{at}");
                let si = speed_independence(&full).is_speed_independent();
                let c = analyze_csc(&full).num_csc_conflicts();
                if deep {
                    let d_si = speed_independence(&derived).is_speed_independent();
                    assert_eq!(d_si, si, "{at}: SI verdict");
                    assert_eq!(analyze_csc(&derived).num_csc_conflicts(), c, "{at}");
                    assert_eq!(literal_estimate(&derived), literal_estimate(&full), "{at}");
                }
                if si {
                    tried += 1;
                    if c < conflicts {
                        feasible.push((c, x, y, derived));
                    }
                }
            }
        }
        // The resolver's choice: fewest conflicts, then the least
        // literal estimate among the first `rank_pool` of them.
        feasible.sort_by_key(|(c, ..)| *c);
        let Some(best) = feasible.first().map(|(c, ..)| *c) else {
            break;
        };
        let (c, x, y, next_sg) = feasible
            .into_iter()
            .filter(|(c, ..)| *c == best)
            .take(opts.rank_pool)
            .min_by_key(|(.., g)| literal_estimate(g))
            .expect("the pool holds the best candidate");
        parent = insert_state_signal(&parent, &name, x, y).unwrap().0;
        parent_sg = next_sg;
        conflicts = c;
        inserted += 1;
    }
    // The walk took the resolver's path.
    match resolve_csc_analyzed(stg, sg.clone(), &analyze_csc(sg), &opts) {
        Ok(r) => {
            assert_eq!(conflicts, 0, "{label}: the walk did not resolve");
            assert_eq!(r.inserted.len(), inserted, "{label}");
            assert_eq!(r.tried, tried, "{label}: tried");
            assert_eq!(r.rebuilt, 0, "{label}: no full builds");
            assert_eq!(write_g(&r.stg), write_g(&parent), "{label}");
            assert!(r.sg == parent_sg, "{label}");
        }
        Err(e) => assert!(conflicts > 0, "{label}: the walk resolved, the search: {e}"),
    }
}

/// Walks the search from every reshuffling of the partial `src`.
fn walk_reshufflings(name: &str, src: &str, deep: bool, tally: &mut Tally) {
    let spec = parse_g(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let rs = expand_handshakes(&spec, &ExpansionOptions::default())
        .unwrap_or_else(|e| panic!("{name}: expansion failed: {e}"));
    for (i, r) in rs.iter().enumerate() {
        walk(&format!("{name}#{i}"), &r.stg, &r.sg, deep, tally);
    }
}

#[test]
fn derived_candidate_graphs_equal_full_builds() {
    let mut tally = Tally::default();
    for (name, src) in [
        ("hslr", HSLR_G.to_string()),
        ("pcreq", PCREQ_G.to_string()),
        ("pulses-s2", examples::pulses(2, false)),
        ("ring2", examples::ring(2)),
    ] {
        walk_reshufflings(name, &src, false, &mut tally);
    }
    // The complete corpus entries with CSC conflicts: `creq` resolves,
    // `mfig1` cannot.
    for (name, src) in [("creq", CREQ_G), ("mfig1", MFIG1_G)] {
        let stg = parse_g(src).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        walk(name, &stg, &sg, false, &mut tally);
    }
    assert!(
        tally.accepted > 1000
            && tally.accepted < tally.candidates
            && tally.candidates < tally.pairs,
        "{tally:?}"
    );
}

/// A Q-module whose signals toggle twice per cycle: one CSC conflict,
/// resolvable by one state signal.
const QTOGGLE: &str = "\
.model qtoggle
.inputs li ri
.outputs lo ro
.graph
li~ ro~
ro~ ri~
ri~ ro~/2
ro~/2 ri~/2
ri~/2 lo~
lo~ li~/2
li~/2 lo~/2
lo~/2 li~
.marking { <lo~/2,li~> }
.end
";

#[test]
fn toggle_parent_takes_the_full_build() {
    let stg = parse_g(QTOGGLE).unwrap();
    let r = resolve_csc(&stg, &CscOptions::default()).unwrap();
    // Every feasible candidate was built in full, once: the winner was
    // not built again.
    assert_eq!(r.tried, 12);
    assert_eq!(r.rebuilt, 12);
    assert_eq!(r.inserted, ["csc0"]);
    // The circuit the from-scratch search selected.
    assert_eq!(
        write_g(&r.stg),
        ".model qtoggle\n.inputs li ri\n.outputs lo ro\n.internal csc0\n.graph\n\
         li~ ro~\nro~ ri~\nri~ p8\nro~/2 ri~/2\nri~/2 lo~\nlo~ li~/2\nli~/2 p9\n\
         lo~/2 li~\ncsc0+ ro~/2\ncsc0- lo~/2\np8 csc0+\np9 csc0-\n\
         .marking { <lo~/2,li~> }\n.end\n"
    );
    let imp = synthesize_complex_gates(&r.sg).unwrap();
    assert_eq!(
        imp.netlist.describe().trim_end(),
        "lo = lo\nro = ro\ncsc0 = (((li & lo) | (lo' & csc0)) | ri)"
    );
}

#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn derived_graphs_equal_full_builds_on_the_larger_families() {
    let mut tally = Tally::default();
    for (name, src) in [
        ("pulses-s3", examples::pulses(3, false)),
        ("pulses-c2", examples::pulses(2, true)),
        ("pulses-c3", examples::pulses(3, true)),
        ("twochan2", examples::two_channel(2)),
        ("twochan3", examples::two_channel(3)),
        ("ring3", examples::ring(3)),
    ] {
        walk_reshufflings(name, &src, true, &mut tally);
    }
    assert!(tally.accepted > 10_000, "{tally:?}");
}

/// The three searches' counters on the partial `src`: the lattice's
/// `ExpansionStats`, then one token per reshuffling. With `reduce`, the
/// token leads with the reduce search's `scored/pruned/expansions`,
/// and the CSC search runs on the reduction. The CSC part is
/// `tried/rebuilt`, or `stall` when the search fails.
fn search_counters(src: &str, reduce: bool) -> String {
    let spec = parse_g(src).unwrap();
    let e = expand_handshakes_stats(&spec, &ExpansionOptions::default()).unwrap();
    let s = e.stats;
    let mut out = format!(
        "points {} infeasible {} graphs {} symmetry {} hits {} products {} |",
        s.points,
        s.infeasible,
        s.deduped_graphs,
        s.deduped_symmetry,
        s.prefix_hits,
        s.restriction_products
    );
    for r in e.reshufflings {
        let (stg, sg) = if reduce {
            let red = reduce_concurrency_from(&r.stg, r.sg, &ReduceOptions::default()).unwrap();
            out += &format!(" {}/{}/{}:", red.scored, red.pruned, red.expansions);
            (red.stg, red.sg)
        } else {
            out += " ";
            (r.stg, r.sg)
        };
        match resolve_csc_from(&stg, sg, &CscOptions::default()) {
            Ok(c) => out += &format!("{}/{}", c.tried, c.rebuilt),
            Err(_) => out += "stall",
        }
    }
    out
}

/// The partial inputs whose counters are pinned, by name.
fn source(name: &str) -> String {
    match name {
        "hslr" => HSLR_G.to_string(),
        "pcreq" => PCREQ_G.to_string(),
        "pulses-s2" => examples::pulses(2, false),
        "pulses-c2" => examples::pulses(2, true),
        "pulses-c3" => examples::pulses(3, true),
        "twochan2" => examples::two_channel(2),
        "ring2" => examples::ring(2),
        "ring3" => examples::ring(3),
        _ => panic!("no source named {name}"),
    }
}

/// Checks `(input, reduce, counters)` pins, reporting every one that
/// moved.
fn assert_counters(pins: &[(&str, bool, &str)]) {
    let mut drift = String::new();
    for &(name, reduce, pinned) in pins {
        let got = search_counters(&source(name), reduce);
        if got != pinned {
            drift += &format!("{name} reduce={reduce}:\n{got}\n");
        }
    }
    assert!(drift.is_empty(), "counters moved:\n{drift}");
}

/// The counters of the three searches: deriving, gating and
/// deduplicating candidates on graphs, and building STGs only for the
/// kept ones, must not move one of them.
#[test]
fn search_counters_are_pinned() {
    assert_counters(&[
        (
            "hslr",
            false,
            "points 4 infeasible 0 graphs 1 symmetry 0 hits 1 products 3 | 32/0 \
             32/0 stall",
        ),
        (
            "hslr",
            true,
            "points 4 infeasible 0 graphs 1 symmetry 0 hits 1 products 3 | \
             12/0/13:0/0 11/0/12:0/0 6/0/7:0/0",
        ),
        (
            "pcreq",
            false,
            "points 16 infeasible 0 graphs 10 symmetry 0 hits 17 products 15 | \
             32/0 32/0 10/0 10/0 10/0 12/0",
        ),
        (
            "pcreq",
            true,
            "points 16 infeasible 0 graphs 10 symmetry 0 hits 17 products 15 | \
             9/0/10:0/0 8/0/9:0/0 3/0/4:0/0 5/0/6:0/0 2/0/3:0/0 0/0/1:12/0",
        ),
        (
            "pulses-s2",
            false,
            "points 256 infeasible 0 graphs 241 symmetry 0 hits 769 products \
             255 | 142/0 142/0 72/0 72/0 76/0 74/0 80/0 80/0 72/0 76/0 80/0 \
             76/0 82/0 80/0 86/0",
        ),
        (
            "pulses-s2",
            true,
            "points 256 infeasible 0 graphs 241 symmetry 0 hits 769 products \
             255 | 34/0/35:30/0 33/0/34:30/0 19/0/20:30/0 30/0/31:30/0 \
             9/0/10:30/0 24/0/25:0/0 3/0/4:30/0 14/0/15:40/0 18/0/19:30/0 \
             15/0/16:0/0 9/0/10:40/0 8/0/9:30/0 5/0/6:40/0 2/0/3:40/0 \
             0/0/1:86/0",
        ),
        (
            "pulses-c2",
            false,
            "points 256 infeasible 0 graphs 220 symmetry 15 hits 769 products \
             255 | 108/0 108/0 108/0 108/0 116/0 108/0 108/0 54/0 54/0 104/0 \
             108/0 54/0 60/0 114/0 60/0 54/0 108/0 54/0 60/0 54/0 66/0",
        ),
        (
            "pulses-c2",
            true,
            "points 256 infeasible 0 graphs 220 symmetry 15 hits 769 products \
             255 | 144/18/128:0/0 159/0/128:0/0 142/0/128:0/0 153/0/128:0/0 \
             60/0/61:0/0 151/17/128:0/0 138/0/128:0/0 134/12/128:0/0 \
             146/8/128:0/0 151/0/128:0/0 146/0/128:0/0 142/0/128:0/0 \
             45/0/46:0/0 59/0/60:0/0 49/0/50:0/0 138/0/128:0/0 141/0/128:0/0 \
             120/0/121:0/0 39/0/40:0/0 96/18/97:0/0 14/6/15:30/0",
        ),
        (
            "twochan2",
            false,
            "points 4 infeasible 0 graphs 1 symmetry 0 hits 1 products 3 | \
             232/0 232/0 stall",
        ),
        (
            "twochan2",
            true,
            "points 4 infeasible 0 graphs 1 symmetry 0 hits 1 products 3 | \
             12/0/13:146/0 11/0/12:146/0 6/0/7:178/0",
        ),
        (
            "ring2",
            false,
            "points 16 infeasible 0 graphs 10 symmetry 0 hits 17 products 15 | \
             stall stall stall stall stall 42/0",
        ),
        (
            "ring2",
            true,
            "points 16 infeasible 0 graphs 10 symmetry 0 hits 17 products 15 | \
             10/0/11:12/0 11/0/12:stall 11/0/12:12/0 7/0/8:16/0 7/0/8:16/0 \
             4/0/5:16/0",
        ),
    ]);
}

#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn slowest_paper_path_inputs_select_the_pinned_circuits() {
    let cases = [
        (
            "ring3",
            examples::ring(3),
            5514,
            "r1 = ((r3 & csc2) | csc0')\n\
             r2 = (((a1 & csc0') & csc1) | (r3 & csc2))\n\
             r3 = (csc2 & ((a2 & csc1) | r3))\n\
             csc0 = (((a1 & r1') | (r1 & csc0)) | (a3 & csc2))\n\
             csc1 = ((csc0' & csc1) | a2')\n\
             csc2 = ((csc1 & csc2) | a3')",
        ),
        (
            "pulses-c3",
            examples::pulses(3, true),
            11864,
            "req = csc2\n\
             p1 = (ack & csc2)\n\
             p2 = (ack & csc0')\n\
             p3 = (ack & csc1)\n\
             csc0 = ((ack & csc0) | p2)\n\
             csc1 = ((ack' & csc0') | (p3' & csc1))\n\
             csc2 = ((ack' & csc1) | (p1' & csc2))",
        ),
        (
            "ring4",
            examples::ring(4),
            2928,
            "r1 = ((r4 & csc3) | csc0)\n\
             r2 = (((a1 & csc0) & csc1) | (r4 & csc3))\n\
             r3 = (((a2 & csc1) & csc2) | (r4 & csc3))\n\
             r4 = (csc3 & ((a3 & csc2) | r4))\n\
             csc0 = ((csc0 & (a4' | csc3')) | a1')\n\
             csc1 = ((csc0 & csc1) | a2')\n\
             csc2 = ((csc1 & csc2) | a3')\n\
             csc3 = ((csc2 & csc3) | a4')",
        ),
    ];
    let opts = PipelineOptions::new().with_expand(ExpansionOptions::default());
    for (name, src, tried, netlist) in cases {
        let done = Pipeline::from_g(&src).unwrap().run(&opts).unwrap();
        let resolve = done.diagnostics().stage(Stage::Resolve).unwrap();
        assert_eq!(resolve.candidates, Some(tried), "{name}: resolve tried");
        let described = done.synthesis().netlist.describe();
        assert_eq!(described.trim_end(), netlist, "{name}");
    }
    assert_counters(&[
        (
            "ring3",
            false,
            "points 2054 infeasible 0 graphs 1990 symmetry 0 hits 9233 products \
             2053 | stall stall 180/0 stall stall 206/0 180/0 stall stall stall \
             stall 220/0 stall stall stall stall stall 184/0 106/0 stall 180/0 \
             220/0 106/0 stall 218/0 stall 230/0 stall stall stall stall stall \
             stall stall stall stall stall 106/0 stall 218/0 220/0 226/0 132/0 \
             226/0 234/0 106/0 stall 210/0 106/0 stall 210/0 stall stall stall \
             122/0 stall 242/0 122/0 stall 242/0 132/0 226/0 234/0 170/0",
        ),
        (
            "ring3",
            true,
            "points 2054 infeasible 0 graphs 1990 symmetry 0 hits 9233 products \
             2053 | 148/0/128:38/0 142/0/128:38/0 145/0/128:38/0 149/0/128:38/0 \
             148/0/128:28/0 137/0/128:38/0 140/0/128:38/0 142/0/128:38/0 \
             143/0/128:42/0 149/0/128:38/0 141/0/128:38/0 140/0/128:44/0 \
             150/0/128:50/0 136/0/128:38/0 149/0/128:38/0 147/0/128:50/0 \
             144/0/128:38/0 148/0/128:28/0 132/0/128:38/0 145/0/128:38/0 \
             142/0/128:38/0 140/0/128:50/0 142/0/128:38/0 165/0/128:38/0 \
             141/0/128:50/0 133/0/128:38/0 105/0/106:50/0 136/0/128:38/0 \
             149/0/128:38/0 147/0/128:50/0 143/0/128:42/0 143/0/128:42/0 \
             147/0/128:32/0 136/0/128:42/0 152/0/128:42/0 152/0/128:42/0 \
             144/0/128:54/0 142/0/128:38/0 163/0/128:38/0 143/0/128:50/0 \
             141/0/128:44/0 151/0/128:34/0 105/0/106:44/0 144/0/128:44/0 \
             138/0/128:50/0 134/0/128:38/0 148/0/128:38/0 144/0/128:50/0 \
             134/0/128:38/0 145/0/128:38/0 144/0/128:50/0 136/0/128:42/0 \
             152/0/128:42/0 144/0/128:54/0 140/0/128:42/0 149/0/128:42/0 \
             146/0/128:54/0 141/0/128:42/0 156/0/128:42/0 148/0/128:54/0 \
             105/0/106:44/0 144/0/128:44/0 139/0/128:50/0 72/0/73:54/0",
        ),
        (
            "pulses-c3",
            false,
            "points 4096 infeasible 0 graphs 3880 symmetry 160 hits 20481 \
             products 4095 | 248/0 248/0 244/0 244/0 254/0 248/0 244/0 240/0 \
             234/0 266/0 234/0 244/0 240/0 254/0 254/0 250/0 248/0 234/0 244/0 \
             240/0 144/0 250/0 144/0 226/0 240/0 144/0 156/0 266/0 168/0 230/0 \
             244/0 144/0 168/0 234/0 250/0 156/0 254/0 156/0 250/0 144/0 244/0 \
             240/0 144/0 168/0 234/0 144/0 240/0 156/0 156/0 250/0 144/0 240/0 \
             144/0 156/0 144/0 180/0",
        ),
        (
            "pulses-c3",
            true,
            "points 4096 infeasible 0 graphs 3880 symmetry 160 hits 20481 \
             products 4095 | 184/32/128:68/0 192/18/128:0/0 179/18/128:0/0 \
             185/18/128:48/0 157/30/128:0/0 202/44/128:0/0 173/18/128:0/0 \
             173/32/128:0/0 166/24/128:58/0 162/38/128:0/0 205/0/128:0/0 \
             202/0/128:0/0 186/0/128:0/0 186/0/128:0/0 174/0/128:0/0 \
             184/0/128:0/0 519/93/128:0/0 174/0/128:58/0 189/0/128:0/0 \
             187/0/128:0/0 197/71/128:0/0 171/0/128:0/0 177/28/128:66/0 \
             371/47/128:0/0 177/40/128:0/0 166/35/128:0/0 176/33/128:0/0 \
             161/32/128:0/0 162/32/128:0/0 186/28/128:0/0 419/45/128:0/0 \
             173/16/128:0/0 159/20/128:0/0 224/0/128:0/0 175/0/128:0/0 \
             189/0/128:0/0 168/19/128:0/0 157/22/128:0/0 180/0/128:0/0 \
             169/18/128:0/0 359/39/128:0/0 170/50/128:0/0 171/15/128:0/0 \
             155/20/128:0/0 195/0/128:0/0 192/0/128:0/0 190/0/128:0/0 \
             194/0/128:0/0 190/0/128:0/0 171/0/128:0/0 163/30/128:0/0 \
             168/32/128:0/0 172/32/128:0/0 173/30/128:0/0 188/68/128:0/0 \
             160/32/128:56/0",
        ),
    ]);
}
