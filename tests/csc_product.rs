//! Insert == rebuild for the CSC insertion search.
//!
//! The search derives each candidate's state graph from its parent's
//! ([`insert_series_pair`]) instead of building the candidate STG from
//! scratch. These suites walk the greedy search, round by round, from
//! every reshuffling of the partial corpus entries and of generated
//! families, and check every structurally feasible insertion `(x, y)`:
//! the derived graph is accepted exactly when a full build succeeds, and
//! accepted graphs equal the full build's: the same canonical
//! fingerprint, and the same codes and arcs under the same state
//! numbering. Each walk must also end where `resolve_csc_analyzed` ends,
//! with the same derived graph: the search keeps each round winner's
//! derived graph and builds none in full.
//!
//! The `#[ignore]`d suite runs the larger families and pins the slowest
//! paper-path inputs end to end; run it in release:
//! `cargo test --release --test csc_product -- --ignored`.

use reshuffle::{ExpansionOptions, Pipeline, PipelineOptions, Stage};
use reshuffle_bench::examples::{self, CREQ_G, HSLR_G, MFIG1_G, PCREQ_G};
use reshuffle_handshake::expand_handshakes;
use reshuffle_petri::structural::insert_series_transition;
use reshuffle_petri::{parse_g, write_g, Polarity, SignalKind, Stg, TransitionId};
use reshuffle_sg::csc::analyze_csc;
use reshuffle_sg::props::speed_independence;
use reshuffle_sg::restrict::insert_series_pair;
use reshuffle_sg::{build_state_graph, StateGraph};
use reshuffle_synth::{
    literal_estimate, resolve_csc, resolve_csc_analyzed, synthesize_complex_gates, CscOptions,
};

/// The candidate the search builds for `(x, y)`: `name+` in series
/// after `x`, `name-` after `y`, never delaying an input.
fn insertion(
    stg: &Stg,
    name: &str,
    x: TransitionId,
    y: TransitionId,
) -> Option<(Stg, TransitionId, TransitionId)> {
    let mut cand = stg.clone();
    let sig = cand.add_signal(name, SignalKind::Internal).ok()?;
    let keep = |g: &Stg, t: TransitionId| !g.is_input_transition(t);
    let rise = insert_series_transition(&mut cand, x, sig, Polarity::Rise, keep).ok()?;
    let fall = insert_series_transition(&mut cand, y, sig, Polarity::Fall, keep).ok()?;
    Some((cand, rise, fall))
}

/// Candidates checked and candidates both paths accepted.
#[derive(Debug, Default)]
struct Tally {
    candidates: usize,
    accepted: usize,
}

/// Asserts that `a` and `b` have the same codes and arcs, state for
/// state.
fn assert_same_graph(at: &str, a: &StateGraph, b: &StateGraph) {
    assert_eq!(a.codes(), b.codes(), "{at}: codes");
    for s in a.state_ids() {
        assert!(a.succ(s).iter().eq(b.succ(s).iter()), "{at}: arcs");
    }
}

/// Walks the greedy search from `(stg, sg)`, checking every feasible
/// candidate of every round. `deep` also compares the conflict count,
/// the SI verdict and the literal estimate of the two graphs.
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
        let mut feasible: Vec<(usize, Stg, StateGraph)> = Vec::new();
        for &x in &transitions {
            for &y in &transitions {
                if x == y {
                    continue;
                }
                let Some((cand, rise, fall)) = insertion(&parent, &name, x, y) else {
                    continue;
                };
                tally.candidates += 1;
                let at = format!(
                    "{label}: {name} after ({}, {})",
                    parent.transition_name(x),
                    parent.transition_name(y)
                );
                let derived = insert_series_pair(&parent_sg, &cand, rise, fall);
                let (derived, full) = match (derived, build_state_graph(&cand)) {
                    (Ok(d), Ok(f)) => (d, f),
                    (Err(_), Err(_)) => continue,
                    (d, f) => panic!("{at}: derived {:?}, full build {:?}", d.err(), f.err()),
                };
                tally.accepted += 1;
                assert_eq!(derived.fingerprint(), full.fingerprint(), "{at}");
                // Numbered as the full build numbers them, state for state.
                assert_same_graph(&at, &derived, &full);
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
                        feasible.push((c, cand, derived));
                    }
                }
            }
        }
        // The resolver's choice: fewest conflicts, then the least
        // literal estimate among the first `rank_pool` of them.
        feasible.sort_by_key(|(c, _, _)| *c);
        let Some(best) = feasible.first().map(|(c, _, _)| *c) else {
            break;
        };
        let (c, next, next_sg) = feasible
            .into_iter()
            .filter(|(c, _, _)| *c == best)
            .take(opts.rank_pool)
            .min_by_key(|(_, _, g)| literal_estimate(g))
            .expect("the pool holds the best candidate");
        parent = next;
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
            assert_same_graph(label, &r.sg, &parent_sg);
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
        tally.accepted > 1000 && tally.accepted < tally.candidates,
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
}
