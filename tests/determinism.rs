//! Thread-count independence of the parallel state-graph build, its
//! numbering against the marking graph, and equivalence of the CSR
//! incremental product with a full rebuild.
//!
//! The sharded parallel exploration must be *byte-identical* for every
//! thread count — state numbering, arcs, fingerprints and `Debug`
//! rendering — because golden pins, `canonical_fingerprint`-keyed
//! caches and committed bench baselines all assume one canonical
//! graph per specification.

use reshuffle_bench::examples;
use reshuffle_handshake::{expand_handshakes, ExpansionOptions};
use reshuffle_petri::{parse_g, structural, ReachabilityGraph};
use reshuffle_sg::conc::concurrent_pairs;
use reshuffle_sg::restrict::restrict_with_place;
use reshuffle_sg::{build_state_graph, build_state_graph_with, BuildOptions, EventId};

fn opts(threads: usize) -> BuildOptions {
    BuildOptions {
        threads,
        ..Default::default()
    }
}

#[test]
fn corpus_builds_identically_at_1_2_8_threads() {
    for (name, src) in examples::ALL {
        let stg = parse_g(src).unwrap();
        let base = build_state_graph_with(&stg, &opts(1)).unwrap();
        let base_debug = format!("{base:?}");
        for threads in [2, 8] {
            let sg = build_state_graph_with(&stg, &opts(threads)).unwrap();
            assert_eq!(
                base.fingerprint(),
                sg.fingerprint(),
                "{name}: fingerprint differs at {threads} threads"
            );
            assert_eq!(
                base_debug,
                format!("{sg:?}"),
                "{name}: Debug output differs at {threads} threads"
            );
        }
    }
}

#[test]
fn scaled_generator_builds_identically_across_threads() {
    // n = 5 keeps the suite fast while still crossing multiple shards
    // every level (the frontier stays under the engine's spawn
    // threshold — the spawned path is pinned by the test below and by
    // the engine's own `spawned_path_matches_inline_path`).
    let stg = parse_g(&examples::scaled_pipeline(5)).unwrap();
    let base = build_state_graph_with(&stg, &opts(1)).unwrap();
    assert_eq!(base.num_states(), 2 * 3usize.pow(5) + 2);
    for threads in [2, 8] {
        let sg = build_state_graph_with(&stg, &opts(threads)).unwrap();
        assert_eq!(base.fingerprint(), sg.fingerprint());
        assert_eq!(format!("{base:?}"), format!("{sg:?}"));
    }
}

#[test]
fn spawned_workers_build_identically_at_scale() {
    // scaled_pipeline(9) peaks at a ~3100-state frontier — past the
    // engine's spawn threshold — so the multi-thread builds here run
    // the real scoped-worker path end to end through
    // `build_state_graph_with`, not the inline fallback.
    let stg = parse_g(&examples::scaled_pipeline(9)).unwrap();
    let (base, stats) =
        reshuffle_sg::build_state_graph_stats(&stg, &opts(1)).expect("serial build");
    assert_eq!(stats.states, 2 * 3usize.pow(9) + 2);
    assert!(
        stats.peak_frontier > 1024,
        "frontier {} never crossed the spawn threshold — this test would be vacuous",
        stats.peak_frontier
    );
    for threads in [2, 8] {
        let sg = build_state_graph_with(&stg, &opts(threads)).unwrap();
        assert_eq!(
            base.fingerprint(),
            sg.fingerprint(),
            "spawned build differs at {threads} threads"
        );
        assert_eq!(base.num_arcs(), sg.num_arcs());
        assert_eq!(base.codes(), sg.codes());
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
