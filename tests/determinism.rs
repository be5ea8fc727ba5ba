//! The state graph's canonical numbering against the marking graph,
//! pinned build statistics on the scaled family, and equivalence of
//! the CSR incremental product with a full rebuild.
//!
//! Golden pins, `canonical_fingerprint`-keyed caches and committed
//! bench baselines all assume one canonical graph per specification:
//! markings numbered breadth-first from the initial one, successors in
//! ascending transition order.

use reshuffle_bench::examples;
use reshuffle_handshake::{expand_handshakes, ExpansionOptions};
use reshuffle_petri::{parse_g, structural, ReachabilityGraph};
use reshuffle_sg::conc::concurrent_pairs;
use reshuffle_sg::restrict::restrict_with_place;
use reshuffle_sg::{build_state_graph, build_state_graph_stats, BuildOptions, BuildStats, EventId};

#[test]
fn scaled_build_stats_are_pinned() {
    // `Diagnostics::summary` prints these; the peak frontier is the
    // widest breadth-first level of the marking exploration.
    for (n, states, arcs, peak_frontier) in [
        (7, 4376, 20416, 393),
        (8, 13124, 69988, 1107),
        (9, 39368, 236200, 3139),
    ] {
        let stg = parse_g(&examples::scaled_pipeline(n)).unwrap();
        let (_, stats) = build_state_graph_stats(&stg, &BuildOptions::default()).unwrap();
        let want = BuildStats {
            states,
            arcs,
            peak_frontier,
        };
        assert_eq!(stats, want, "scaled_pipeline({n})");
    }
}

#[test]
fn labelled_graph_has_one_state_per_marking() {
    // Without toggle edges the code follows the marking, so state i is
    // marking node i with the same arcs: the numbering the CSC search's
    // `insert_series_pair` reproduces state for state.
    let mut stgs = Vec::new();
    for (name, src) in examples::ALL {
        let stg = parse_g(src).unwrap();
        if stg.is_partial() {
            let all = ExpansionOptions {
                max_reshufflings: 4096,
            };
            let reshufflings = expand_handshakes(&stg, &all).unwrap();
            for (i, r) in reshufflings.into_iter().enumerate() {
                stgs.push((format!("{name}#{i}"), r.stg));
            }
        } else {
            stgs.push((name.to_string(), stg));
        }
    }
    for n in 1..=5 {
        stgs.push((
            format!("scaled{n}"),
            parse_g(&examples::scaled_pipeline(n)).unwrap(),
        ));
        let padded = examples::scaled_pipeline_padded(n);
        stgs.push((format!("padded{n}"), parse_g(&padded).unwrap()));
    }
    let mut states = 0;
    for (name, stg) in &stgs {
        let rg = ReachabilityGraph::explore_default(stg.net(), &stg.initial_marking()).unwrap();
        let sg = build_state_graph(stg).unwrap();
        assert_eq!(sg.num_states(), rg.len(), "{name}: states");
        for m in 0..rg.len() as u32 {
            let arcs = rg.successors(m).iter().map(|&(t, tgt)| (EventId(t.0), tgt));
            assert!(sg.succ(m).iter().eq(arcs), "{name}: arcs of state {m}");
        }
        states += rg.len();
    }
    assert!(states > 3000, "too few states checked: {states}");
}

#[test]
fn restrict_on_csr_matches_full_rebuild_across_corpus() {
    // For every complete corpus entry and every legal serializing
    // direction of every concurrent pair, the incremental CSR product
    // must be isomorphic to rebuilding the rewritten STG from scratch.
    let mut checked = 0usize;
    for (name, src) in examples::ALL {
        let stg = parse_g(src).unwrap();
        if stg.is_partial() {
            continue;
        }
        let sg = build_state_graph(&stg).unwrap();
        for (a, b) in concurrent_pairs(&sg) {
            for (from, to) in [(a, b), (b, a)] {
                // Same legality conditions the reduction search uses:
                // never delay an input, single-instance edges only.
                if !sg.signals()[to.signal.index()].kind.is_noninput() {
                    continue;
                }
                let &[from_t] = stg.transitions_of_edge(from).as_slice() else {
                    continue;
                };
                let &[to_t] = stg.transitions_of_edge(to).as_slice() else {
                    continue;
                };
                let Ok(product) =
                    restrict_with_place(&sg, &[EventId(from_t.0)], &[EventId(to_t.0)])
                else {
                    continue; // the rewrite would be unsafe
                };
                let mut stg2 = stg.clone();
                structural::insert_causal_place(&mut stg2, from_t, to_t).unwrap();
                let rebuilt = build_state_graph(&stg2).unwrap();
                assert_eq!(
                    product.fingerprint(),
                    rebuilt.fingerprint(),
                    "{name}: product for {from:?} -> {to:?} drifted from a full rebuild"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 4, "too few serializations exercised: {checked}");
}
