//! The state graph's canonical numbering against the marking graph,
//! pinned build statistics on the scaled family, and equality of every
//! derived graph (reshufflings, serializations, reduce results) with
//! the full build of its own STG.
//!
//! Golden pins, `canonical_fingerprint`-keyed caches and committed
//! bench baselines all assume one canonical graph per specification:
//! markings numbered breadth-first from the initial one, successors in
//! ascending transition order. The `#[ignore]`d sweep runs the larger
//! families in release:
//! `cargo test --release --test determinism -- --ignored`.

use reshuffle_bench::examples;
use reshuffle_handshake::{expand_handshakes, ExpansionOptions};
use reshuffle_petri::{parse_g, ReachabilityGraph, Stg};
use reshuffle_reduce::{reduce_concurrency_from, ReduceOptions};
use reshuffle_sg::conc::concurrent_pairs;
use reshuffle_sg::restrict::restrict_with_place;
use reshuffle_sg::{
    build_state_graph, build_state_graph_stats, BuildOptions, BuildStats, EventId, StateGraph,
};

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
            let arcs = rg.successors(m).map(|(t, tgt)| (EventId(t.0), tgt));
            assert!(sg.succ(m).iter().eq(arcs), "{name}: arcs of state {m}");
        }
        states += rg.len();
    }
    assert!(states > 3000, "too few states checked: {states}");
}

#[test]
fn restrict_on_csr_matches_full_rebuild_across_corpus() {
    let mut checked = [0; 3];
    for (name, src) in examples::ALL {
        let found = derived_graphs_are_full_builds(name, &parse_g(src).unwrap());
        for (total, n) in checked.iter_mut().zip(found) {
            *total += n;
        }
    }
    let [reshufflings, serializations, reductions] = checked;
    assert!(reshufflings >= 4, "too few reshufflings: {reshufflings}");
    assert!(
        serializations >= 4,
        "too few serializations: {serializations}"
    );
    assert!(reductions >= 4, "too few reductions: {reductions}");
}

/// The same check on the larger generated families; run it in release:
/// `cargo test --release --test determinism -- --ignored`.
#[test]
#[ignore]
fn derived_graphs_are_full_builds_across_families() {
    let mut families = Vec::new();
    for k in 2..=3 {
        families.push(examples::pulses(k, false));
        families.push(examples::pulses(k, true));
        families.push(examples::ring(k));
    }
    families.extend((1..=3).map(examples::two_channel));
    for src in &families {
        let stg = parse_g(src).unwrap();
        let [reshufflings, _, reductions] = derived_graphs_are_full_builds(&stg.name, &stg);
        assert!(reshufflings > 0, "{}: no reshufflings", stg.name);
        assert!(reductions > 0, "{}: no reductions", stg.name);
    }
}

/// Checks that every graph derived from a parent's graph is the full
/// build of its own STG, as a whole graph, numbering and all: every
/// reshuffling of a partial `spec` (at most 4096), then, from `spec` or
/// each reshuffling, every legal serializing direction of every
/// concurrent pair and the reduce result. Returns the counts of
/// reshufflings, serializations and reduce results checked.
fn derived_graphs_are_full_builds(name: &str, spec: &Stg) -> [usize; 3] {
    let mut checked = [0; 3];
    let roots = if spec.is_partial() {
        let all = ExpansionOptions {
            max_reshufflings: 4096,
        };
        let reshufflings = expand_handshakes(spec, &all).unwrap();
        checked[0] = reshufflings.len();
        reshufflings
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let at = format!("{name}#{i}");
                assert_full_build(&at, &r.stg, &r.sg);
                (at, r.stg, r.sg)
            })
            .collect()
    } else {
        vec![(
            name.to_string(),
            spec.clone(),
            build_state_graph(spec).unwrap(),
        )]
    };
    for (at, stg, sg) in roots {
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
                let Ok(product) = restrict_with_place(&sg, EventId(from_t.0), EventId(to_t.0))
                else {
                    continue; // the rewrite would be unsafe
                };
                let mut stg2 = stg.clone();
                stg2.connect(from_t, to_t).unwrap();
                assert_full_build(&format!("{at}: {from:?} -> {to:?}"), &stg2, &product);
                checked[1] += 1;
            }
        }
        if let Ok(red) = reduce_concurrency_from(&stg, sg, &ReduceOptions::default()) {
            assert_full_build(&format!("{at}: reduced"), &red.stg, &red.sg);
            checked[2] += 1;
        }
    }
    checked
}

/// Asserts that `sg` is the full build of `stg`.
fn assert_full_build(at: &str, stg: &Stg, sg: &StateGraph) {
    let full = build_state_graph(stg).unwrap_or_else(|e| panic!("{at}: full build failed: {e}"));
    assert!(*sg == full, "{at}: differs from the full build");
}
