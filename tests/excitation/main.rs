//! Every per-state property against its reference.
//!
//! The library reads which edges a state enables from one query,
//! `StateGraph::excitation`. The references in `reference.rs`
//! scan each state's arcs instead, as the library once did. On every
//! graph checked here both must give the same speed-independence
//! witnesses, CSC conflicts, concurrent pairs, next-state tables,
//! implied values, gC set/reset covers, netlist mismatches and rendered
//! states, in the same order.
//!
//! The graphs: every corpus entry, every reshuffling of a partial one,
//! every serialization the reduce search's move rule derives (and their
//! own moves, breadth-first), every CSC candidate of the greedy
//! insertion search from each of those roots and from its reduce
//! result, and each of the four pipeline modes' results. Then two
//! seeded sets that the corpus lacks: graphs with speed-independence
//! violations and graphs with CSC conflicts (`seeded.rs`).
//!
//! The `#[ignore]`d sweep runs the generated families, the scaled
//! specs and the full seeded sets in release:
//! `cargo test --release --test excitation -- --ignored`.

mod reference;
mod seeded;

use std::collections::HashSet;

use reshuffle::{ExpansionOptions, Pipeline, PipelineOptions, ReduceOptions};
use reshuffle_bench::examples;
use reshuffle_handshake::expand_handshakes;
use reshuffle_petri::structural::insert_state_signal;
use reshuffle_petri::{parse_g, Polarity, SignalId, Stg, TransitionId};
use reshuffle_reduce::reduce_concurrency_from;
use reshuffle_sg::conc::concurrent_pairs;
use reshuffle_sg::csc::analyze_csc;
use reshuffle_sg::nextstate::{implied_value, next_state_tables};
use reshuffle_sg::props::{live_and_speed_independent, speed_independence};
use reshuffle_sg::restrict::{insert_series_pair, restrict_with_place};
use reshuffle_sg::{
    build_state_graph, build_state_graph_with, BuildOptions, EventId, SgError, StateGraph, StateId,
};
use reshuffle_synth::{
    check_against_sg, derive_gc_function, literal_estimate, synthesize_complex_gates,
    verify_against_sg, CscOptions, GateType, Netlist, Node, SynthError,
};

use seeded::Rng;

/// What the checked graphs held, for the coverage floors.
#[derive(Debug, Default)]
struct Tally {
    graphs: usize,
    not_speed_independent: usize,
    nondeterministic: usize,
    noncommutative: usize,
    nonpersistent: usize,
    csc_conflicting: usize,
    toggles: usize,
    mismatches: usize,
}

/// Asserts that every library reader equals its reference on `sg`;
/// `seed` draws the random netlist whose mismatches are compared.
fn check(at: &str, sg: &StateGraph, seed: u64, tally: &mut Tally) {
    tally.graphs += 1;
    if sg
        .events()
        .iter()
        .any(|e| matches!(e.edge, Some(e) if e.polarity == Polarity::Toggle))
    {
        tally.toggles += 1;
    }

    let (si, want) = (speed_independence(sg), reference::speed_independence(sg));
    assert_eq!(
        si.nondeterminism, want.nondeterminism,
        "{at}: nondeterminism"
    );
    assert_eq!(
        si.noncommutativity, want.noncommutativity,
        "{at}: commutativity"
    );
    assert_eq!(si.nonpersistency, want.nonpersistency, "{at}: persistency");
    tally.not_speed_independent += usize::from(!si.is_speed_independent());
    tally.nondeterministic += usize::from(!si.nondeterminism.is_empty());
    tally.noncommutative += usize::from(!si.noncommutativity.is_empty());
    tally.nonpersistent += usize::from(!si.nonpersistency.is_empty());

    let csc = analyze_csc(sg);
    assert_eq!(
        csc.conflicts,
        reference::analyze_csc(sg).conflicts,
        "{at}: CSC"
    );
    tally.csc_conflicting += usize::from(!csc.has_csc());

    assert_eq!(
        concurrent_pairs(sg),
        reference::concurrent_pairs(sg),
        "{at}: concurrency"
    );

    let tables = next_state_tables(sg);
    let mut codes = sg.codes().to_vec();
    codes.sort_unstable();
    codes.dedup();
    assert_eq!(tables.reachable(), codes, "{at}: reachable codes");
    for i in 0..sg.num_signals() {
        let sig = SignalId::from_index(i);
        let t = tables.table(sig);
        let [on, off, conflicting] = reference::next_state_table(sg, sig);
        let got = (t.on, t.off, t.conflicting);
        assert_eq!(got, (on, off, conflicting), "{at}: table of signal {i}");
        for s in sg.state_ids() {
            let want = reference::implied_value(sg, s, sig);
            assert_eq!(
                implied_value(sg, s, sig),
                want,
                "{at}: state {s} signal {i}"
            );
        }
        if sg.signal(sig).kind.is_noninput() {
            let got = match derive_gc_function(sg, sig) {
                Ok(f) => Ok((f.set, f.reset)),
                Err(SynthError::CscViolation { signal, conflicts }) => Err((signal, conflicts)),
                Err(e) => panic!("{at}: derive_gc_function: {e}"),
            };
            let want = reference::derive_gc_function(sg, sig).map(|f| (f.set, f.reset));
            assert_eq!(got, want, "{at}: gC function of signal {i}");
        }
    }

    for s in sg.state_ids() {
        assert_eq!(sg.render_state(s), render(sg, s), "{at}: state {s}");
    }

    let mut netlists = vec![random_netlist(sg, seed)];
    netlists.extend(synthesize_complex_gates(sg).ok().map(|c| c.netlist));
    for nl in &netlists {
        let got = check_against_sg(sg, nl);
        assert_eq!(got, reference::check_against_sg(sg, nl), "{at}: mismatches");
        tally.mismatches += usize::from(!got.is_empty());
        let driven = (0..sg.num_signals())
            .map(SignalId::from_index)
            .all(|s| !sg.signal(s).kind.is_noninput() || nl.driver(s).is_some());
        let verified = verify_against_sg(sg, nl).is_ok();
        assert_eq!(verified, driven && got.is_empty(), "{at}: verification");
    }
}

/// `StateGraph::render_state` as it read before: one digit per signal,
/// `*` after each signal with an enabled edge.
fn render(sg: &StateGraph, s: StateId) -> String {
    let enabled = reference::enabled_edges(sg, s);
    let mut out = String::new();
    for i in 0..sg.num_signals() {
        let sig = SignalId::from_index(i);
        out.push(if sg.value(s, sig) { '1' } else { '0' });
        if enabled.iter().any(|e| e.signal == sig) {
            out.push('*');
        }
    }
    out
}

/// A netlist driving each non-input signal of `sg` by nothing, a wire,
/// an inverter or an AND of two signals, as `seed` draws.
fn random_netlist(sg: &StateGraph, seed: u64) -> Netlist {
    let mut rng = Rng::new(seed);
    let mut nl = Netlist::new(sg.signals().to_vec());
    let n = sg.num_signals();
    for i in 0..n {
        let sig = SignalId::from_index(i);
        if !sg.signal(sig).kind.is_noninput() {
            continue;
        }
        let a = nl.add(Node::SignalRef(SignalId::from_index(rng.below(n))));
        let driver = match rng.below(4) {
            0 => continue,
            1 => a,
            2 => nl.add(Node::Gate(GateType::Inv, vec![a])),
            _ => {
                let b = nl.add(Node::SignalRef(SignalId::from_index(rng.below(n))));
                nl.add(Node::Gate(GateType::And2, vec![a, b]))
            }
        };
        nl.set_driver(sig, driver).unwrap();
    }
    nl
}

/// The four pipeline modes of the golden corpus.
fn modes() -> [(&'static str, PipelineOptions); 4] {
    let expand = ExpansionOptions::default();
    let reduce = ReduceOptions::default();
    [
        ("default", PipelineOptions::new()),
        ("reduce", PipelineOptions::new().with_reduce(reduce.clone())),
        ("expand", PipelineOptions::new().with_expand(expand.clone())),
        (
            "exp+red",
            PipelineOptions::new()
                .with_expand(expand)
                .with_reduce(reduce),
        ),
    ]
}

/// Checks `spec`'s graphs and what the searches derive from them: the
/// spec's graph or every reshuffling (up to 4096), then from each of
/// those the graphs the reduce moves reach (the first `max_moved`
/// breadth-first), the CSC candidates, the reduce result and its CSC
/// candidates.
fn sweep(name: &str, spec: &Stg, max_moved: usize, tally: &mut Tally) {
    let roots: Vec<(String, Stg, StateGraph)> = if spec.is_partial() {
        let all = ExpansionOptions {
            max_reshufflings: 4096,
        };
        let at = |i| format!("{name}#{i}");
        expand_handshakes(spec, &all)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, r)| (at(i), r.stg, r.sg))
            .collect()
    } else {
        let sg = build_state_graph(spec).unwrap();
        vec![(name.to_string(), spec.clone(), sg)]
    };
    for (at, stg, sg) in roots {
        check(&at, &sg, tally.graphs as u64, tally);
        reduce_moves(&at, &stg, &sg, max_moved, tally);
        csc_walk(&at, &stg, &sg, tally);
        if let Ok(red) = reduce_concurrency_from(&stg, sg, &ReduceOptions::default()) {
            let at = format!("{at} reduced");
            check(&at, &red.sg, tally.graphs as u64, tally);
            csc_walk(&at, &red.stg, &red.sg, tally);
        }
    }
}

/// The reduce search's move rule, breadth-first from `(stg, sg)`: each
/// concurrent pair in each direction whose delayed edge is non-input,
/// both edges single-instance, serialized by `restrict_with_place`.
/// Every such graph is checked (the search tests each for liveness and
/// speed independence); the live, speed-independent ones are expanded
/// in turn, each distinct graph once, until `max_moved` are checked.
/// Unbounded, this reaches every node the search can score, and more.
fn reduce_moves(at: &str, stg: &Stg, sg: &StateGraph, max_moved: usize, tally: &mut Tally) {
    let mut seen = HashSet::from([sg.fingerprint()]);
    let mut queue = std::collections::VecDeque::from([(stg.clone(), sg.clone())]);
    while let Some((stg, sg)) = queue.pop_front() {
        for (a, b) in concurrent_pairs(&sg) {
            for (from, to) in [(a, b), (b, a)] {
                if !sg.signal(to.signal).kind.is_noninput() {
                    continue;
                }
                let &[from_t] = stg.transitions_of_edge(from).as_slice() else {
                    continue;
                };
                let &[to_t] = stg.transitions_of_edge(to).as_slice() else {
                    continue;
                };
                let Ok(next) = restrict_with_place(&sg, EventId(from_t.0), EventId(to_t.0)) else {
                    continue;
                };
                if seen.len() > max_moved || !seen.insert(next.fingerprint()) {
                    continue;
                }
                let label = format!(
                    "{at}: {} -> {}",
                    stg.transition_name(from_t),
                    stg.transition_name(to_t)
                );
                check(&label, &next, tally.graphs as u64, tally);
                if live_and_speed_independent(&next) {
                    let mut stg2 = stg.clone();
                    stg2.connect(from_t, to_t).unwrap();
                    queue.push_back((stg2, next));
                }
            }
        }
    }
}

/// Walks the greedy CSC search from `(stg, sg)` as the resolver does,
/// checking every candidate graph of every round: the speed-independent
/// ones with fewer conflicts form the pool, and the pool's least
/// literal estimate is the next round's parent.
fn csc_walk(label: &str, stg: &Stg, sg: &StateGraph, tally: &mut Tally) {
    let opts = CscOptions::default();
    let mut parent = stg.clone();
    let mut parent_sg = sg.clone();
    let mut conflicts = analyze_csc(sg).num_csc_conflicts();
    let mut inserted = 0;
    while conflicts > 0 && inserted < opts.max_signals {
        let name = format!("csc{inserted}");
        let transitions: Vec<TransitionId> = parent.transitions().collect();
        let mut feasible: Vec<(usize, TransitionId, TransitionId, StateGraph)> = Vec::new();
        for &x in &transitions {
            for &y in &transitions {
                let built = if parent.has_toggle_transitions() {
                    insert_state_signal(&parent, &name, x, y)
                        .map_err(SgError::from)
                        .and_then(|(cand, _, _)| build_state_graph(&cand))
                } else {
                    insert_series_pair(&parent_sg, &parent, &name, x, y)
                };
                let Ok(cand_sg) = built else { continue };
                let at = format!(
                    "{label}: {name} after ({}, {})",
                    parent.transition_name(x),
                    parent.transition_name(y)
                );
                check(&at, &cand_sg, tally.graphs as u64, tally);
                if !speed_independence(&cand_sg).is_speed_independent() {
                    continue;
                }
                let c = analyze_csc(&cand_sg).num_csc_conflicts();
                if c < conflicts {
                    feasible.push((c, x, y, cand_sg));
                }
            }
        }
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
}

/// Builds every seeded text that parses and builds within a small
/// budget, and checks its graph.
fn check_seeded(texts: impl Iterator<Item = (String, String)>, tally: &mut Tally) {
    let opts = BuildOptions {
        state_budget: 2000,
        ..Default::default()
    };
    for (at, g) in texts {
        let Ok(stg) = parse_g(&g) else { continue };
        let Ok(sg) = build_state_graph_with(&stg, &opts) else {
            continue;
        };
        check(&at, &sg, tally.graphs as u64, tally);
    }
}

/// The `.g` texts the mutation generator edits: the corpus and small
/// members of the generated families.
fn mutation_sources() -> Vec<String> {
    let mut sources: Vec<String> = examples::ALL.iter().map(|(_, g)| g.to_string()).collect();
    sources.extend([
        examples::pulses(2, false),
        examples::pulses(2, true),
        examples::two_channel(1),
        examples::ring(2),
        examples::scaled_pipeline(2),
        examples::scaled_pipeline_padded(1),
    ]);
    sources
}

/// `seeds` choice specs and `seeds` mutations of each source.
fn seeded_texts(seeds: u64) -> impl Iterator<Item = (String, String)> {
    let sources = mutation_sources();
    let choices = (0..seeds).map(|seed| (format!("choice seed {seed}"), seeded::choice_spec(seed)));
    let mutations = (0..seeds).flat_map(move |seed| {
        let texts: Vec<(String, String)> = sources
            .iter()
            .enumerate()
            .map(|(i, src)| {
                (
                    format!("source {i} mutation {seed}"),
                    seeded::mutate(src, seed),
                )
            })
            .collect();
        texts
    });
    choices.chain(mutations)
}

#[test]
fn readers_equal_the_references_on_the_corpus() {
    let mut tally = Tally::default();
    for (name, src) in examples::ALL {
        sweep(name, &parse_g(src).unwrap(), usize::MAX, &mut tally);
        for (mode, opts) in modes() {
            if let Ok(done) = Pipeline::from_g(src).and_then(|p| p.run(&opts)) {
                let at = format!("{name} {mode}");
                check(
                    &at,
                    &done.into_synthesis().sg,
                    tally.graphs as u64,
                    &mut tally,
                );
            }
        }
    }
    assert!(tally.graphs >= 350, "{tally:?}");
    assert!(
        tally.csc_conflicting > 0 && tally.mismatches > 0,
        "{tally:?}"
    );
}

#[test]
fn readers_equal_the_references_on_seeded_graphs() {
    let mut tally = Tally::default();
    check_seeded(seeded_texts(40), &mut tally);
    assert!(tally.nondeterministic > 0, "{tally:?}");
    assert!(tally.nonpersistent > 0, "{tally:?}");
    assert!(tally.csc_conflicting > 0, "{tally:?}");
    assert!(tally.toggles > 0, "{tally:?}");
}

/// The same checks on the generated families, the scaled specs and the
/// full seeded sets; run it in release:
/// `cargo test --release --test excitation -- --ignored`.
#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn readers_equal_the_references_across_families_and_seeds() {
    let mut tally = Tally::default();
    let mut families: Vec<String> = (1..=3).map(examples::two_channel).collect();
    for k in 2..=3 {
        families.push(examples::pulses(k, false));
        families.push(examples::pulses(k, true));
        families.push(examples::ring(k));
    }
    for src in &families {
        let spec = parse_g(src).unwrap();
        sweep(&spec.name, &spec, 64, &mut tally);
    }
    for n in 1..=6 {
        for (at, src) in [
            (format!("scaled{n}"), examples::scaled_pipeline(n)),
            (format!("padded{n}"), examples::scaled_pipeline_padded(n)),
        ] {
            let sg = build_state_graph(&parse_g(&src).unwrap()).unwrap();
            check(&at, &sg, n as u64, &mut tally);
        }
    }
    let families = std::mem::take(&mut tally);
    assert!(families.graphs >= 50_000, "{families:?}");

    check_seeded(seeded_texts(5000), &mut tally);
    assert!(tally.not_speed_independent >= 1000, "{tally:?}");
    assert!(tally.noncommutative >= 1, "{tally:?}");
    assert!(tally.csc_conflicting >= 1000, "{tally:?}");
}
