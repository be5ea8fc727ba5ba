//! Behavior preservation of the Section 4 concurrency reduction, over
//! the whole example corpus: a reduction may only *remove*
//! interleavings, never invent behaviour — the reduced STG must stay
//! consistent and speed-independent, and its state-graph trace set must
//! be a subset of the original's (probed with deterministic random
//! interleavings).

use reshuffle_bench::examples;
use reshuffle_handshake::{expand_handshakes, ExpansionOptions};
use reshuffle_petri::parse_g;
use reshuffle_petri::structural::signal_automorphisms;
use reshuffle_reduce::{reduce_concurrency, ReduceOptions};
use reshuffle_sg::conc::concurrent_pairs;
use reshuffle_sg::{build_state_graph, csc::analyze_csc, props::speed_independence, StateGraph};
use reshuffle_synth::literal_estimate;

/// Deterministic splitmix64 stream; seeds derive from the example name
/// so every corpus entry gets its own reproducible interleavings.
struct Rng(u64);

impl Rng {
    fn from_name(name: &str) -> Rng {
        Rng(name.bytes().fold(0x9e3779b97f4a7c15u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0xbf58476d1ce4e5b9)
        }))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// Replays random walks of `reduced` inside `original`. The reducer
/// keeps the event table intact, so a walk is replayed event-by-event;
/// every step must exist in the original graph and land on a state with
/// the same binary code.
fn assert_traces_subset(name: &str, original: &StateGraph, reduced: &StateGraph) {
    let mut rng = Rng::from_name(name);
    for walk in 0..64 {
        let mut red_state = reduced.initial();
        let mut orig_state = original.initial();
        for step in 0..48 {
            let succ = reduced.succ(red_state);
            if succ.is_empty() {
                break; // corpus specs are live; defensive only
            }
            let (event, red_next) = succ.get((rng.next() % succ.len() as u64) as usize);
            red_state = red_next;
            orig_state = original.step(orig_state, event).unwrap_or_else(|| {
                panic!(
                    "{name}: walk {walk} step {step}: reduced trace fires {} \
                     but the original cannot",
                    reduced.event(event).label
                )
            });
            assert_eq!(
                original.code(orig_state),
                reduced.code(red_state),
                "{name}: walk {walk} step {step}: codes diverged"
            );
        }
    }
}

#[test]
fn reductions_preserve_behavior_across_the_corpus() {
    for (name, src) in examples::ALL {
        if examples::PARTIAL.contains(name) {
            // Partial specifications go through handshake expansion
            // before any reduction; the expansion property suite
            // covers them.
            continue;
        }
        let spec = parse_g(src).unwrap();
        let original = build_state_graph(&spec).unwrap();
        let red = reduce_concurrency(&spec, &ReduceOptions::default())
            .unwrap_or_else(|e| panic!("{name}: reduction failed: {e}"));

        // Consistency: the reduced STG must still binary-encode — and
        // to the very graph the incremental derivation produced.
        let rebuilt = build_state_graph(&red.stg)
            .unwrap_or_else(|e| panic!("{name}: reduced STG inconsistent: {e}"));
        assert!(
            rebuilt == red.sg,
            "{name}: incremental state graph drifted from a full rebuild"
        );

        // Speed independence and liveness survive every move.
        assert!(
            speed_independence(&red.sg).is_speed_independent(),
            "{name}: reduction broke speed independence"
        );
        assert!(
            red.sg.deadlock_states().is_empty(),
            "{name}: reduction deadlocked the system"
        );

        // A reduction only removes interleavings.
        assert!(
            red.sg.num_states() <= original.num_states(),
            "{name}: reduction grew the state graph"
        );
        assert_traces_subset(name, &original, &red.sg);
    }
}

#[test]
fn symmetry_dominance_prunes_exactly_the_mirror_moves() {
    // Pinned per complete corpus entry: how many serializing-move
    // candidates the best-first search discarded because a mirror image
    // under a signal automorphism was also a candidate with a smaller
    // label. Only `par` has a non-trivial automorphism (the 1<->2
    // branch swap); everywhere else pruning must be a no-op.
    let expected: &[(&str, usize)] = &[
        ("toggle", 0),
        ("xyz", 0),
        ("lr", 0),
        ("mmu", 0),
        ("par", 4),
        ("mfig1", 0),
        ("creq", 0),
    ];
    for &(name, pruned) in expected {
        let src = examples::ALL.iter().find(|(n, _)| *n == name).unwrap().1;
        let red = reduce_concurrency(&parse_g(src).unwrap(), &ReduceOptions::default()).unwrap();
        assert_eq!(red.pruned, pruned, "{name}: pruned count drifted");
        // Every step carries its own label — the typed move list.
        for step in &red.steps {
            assert!(step.label.contains(" -> "), "{name}: malformed label");
        }
    }
}

#[test]
fn a_serializing_move_can_create_a_symmetry_its_root_lacks() {
    // The reduce search computes no automorphisms below a root spec
    // that has none, and keeps every move there. That is a shortcut,
    // not an invariant: pulses-c2's reshuffling that orders p1- before
    // req- has no signal automorphism, and the legal move that orders
    // p2- before req- as well gives it one (p1 <-> p2).
    let spec = parse_g(&examples::pulses(2, true)).unwrap();
    let all = ExpansionOptions {
        max_reshufflings: 4096,
    };
    let root = expand_handshakes(&spec, &all)
        .unwrap()
        .into_iter()
        .find(|r| r.choices == ["p1- -> req-"])
        .expect("the reshuffling that orders only p1- before req-");
    assert!(signal_automorphisms(&root.stg).is_empty());

    let t = |label| root.stg.transition_by_label(label).unwrap();
    let (p2_fall, req_fall) = (t("p2-"), t("req-"));
    let (from, to) = (root.stg.edge_of(p2_fall), root.stg.edge_of(req_fall));
    let (from, to) = (from.unwrap(), to.unwrap());
    let pairs = concurrent_pairs(&root.sg);
    assert!(
        pairs.contains(&(from, to)) || pairs.contains(&(to, from)),
        "p2- -> req- is a move the search considers"
    );
    let mut node = root.stg.clone();
    node.connect(p2_fall, req_fall).unwrap();
    let node_sg = build_state_graph(&node).unwrap();
    assert!(speed_independence(&node_sg).is_speed_independent());
    assert!(node_sg.deadlock_states().is_empty());
    assert!(
        !signal_automorphisms(&node).is_empty(),
        "the move gave the node a symmetry"
    );
}

#[test]
fn reduction_beats_state_signal_insertion_on_creq() {
    // The acceptance example: creq's CSC conflict is resolvable both
    // ways, and serialization wins — zero state signals and fewer
    // literals than the insertion-based netlist.
    let spec = parse_g(examples::CREQ_G).unwrap();
    let sg0 = build_state_graph(&spec).unwrap();
    assert_eq!(analyze_csc(&sg0).num_csc_conflicts(), 1);

    let unreduced = reshuffle_synth::resolve_csc(&spec, &Default::default()).unwrap();
    assert_eq!(unreduced.inserted.len(), 1);
    let unreduced_literals = literal_estimate(&unreduced.sg);

    let red = reduce_concurrency(&spec, &ReduceOptions::default()).unwrap();
    assert_eq!(red.csc_conflicts, 0, "reduction left the conflict");
    assert_eq!(
        red.stg.num_signals(),
        spec.num_signals(),
        "reduction must not insert state signals"
    );
    assert!(
        red.literals < unreduced_literals,
        "reduced {} literals must beat insertion's {}",
        red.literals,
        unreduced_literals
    );
}

#[test]
fn bounded_reduction_respects_the_cycle_budget() {
    // par trades cycle 12.0 -> 18.0 for literals when unconstrained; a
    // 12.0 budget must keep the specification instead.
    let spec = parse_g(examples::PAR_G).unwrap();
    let free = reduce_concurrency(&spec, &ReduceOptions::default()).unwrap();
    assert!(free.cycle > 12.0);
    assert!(!free.steps.is_empty());

    let bounded = reduce_concurrency(
        &spec,
        &ReduceOptions {
            max_cycle_time: Some(12.0),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(bounded.cycle <= 12.0);
    assert!(
        bounded.literals >= free.literals,
        "the bound cannot make logic cheaper than the free optimum"
    );
}
