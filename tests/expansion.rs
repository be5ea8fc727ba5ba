//! Property suite for the Section 3 handshake-expansion engine, over
//! the partial entries of the example corpus: every enumerated
//! reshuffling preserves the input/output signal interface, is live and
//! speed-independent, the eager and lazy extremes of the lattice are
//! always present, complete corpus entries report `NotPartial`, and the
//! ranked pipeline selection strictly beats the fully-eager expansion
//! where the lattice offers a better point (the acceptance example:
//! `pcreq`).

use reshuffle::{Pipeline, PipelineError, PipelineOptions, Synthesis};
use reshuffle_bench::examples::{self, PCREQ_G};
use reshuffle_handshake::{expand_handshakes, ExpansionOptions, HandshakeError};
use reshuffle_petri::parse_g;
use reshuffle_sg::build_state_graph;
use reshuffle_sg::conc::concurrent_pairs;
use reshuffle_sg::props::{all_events_fire, speed_independence};
use reshuffle_synth::literal_estimate;

/// One-shot builder run on `.g` source.
fn run(src: &str, opts: &PipelineOptions) -> reshuffle::Result<Synthesis> {
    Pipeline::from_g(src)?.run(opts).map(|d| d.into_synthesis())
}

/// The corpus' partial entries, parsed.
fn partial_specs() -> Vec<(&'static str, reshuffle_petri::Stg)> {
    examples::ALL
        .iter()
        .filter(|(name, _)| examples::PARTIAL.contains(name))
        .map(|(name, src)| (*name, parse_g(src).unwrap()))
        .collect()
}

#[test]
fn every_reshuffling_preserves_the_interface_and_semantics() {
    for (name, spec) in partial_specs() {
        let rs = expand_handshakes(&spec, &ExpansionOptions::default())
            .unwrap_or_else(|e| panic!("{name}: expansion failed: {e}"));
        assert!(rs.len() >= 2, "{name}: degenerate lattice ({})", rs.len());
        for (i, r) in rs.iter().enumerate() {
            // Interface preservation: same signals, same names, same
            // kinds, in the same order; the result is complete.
            assert!(!r.stg.is_partial(), "{name}#{i}: still partial");
            assert_eq!(
                r.stg.num_signals(),
                spec.num_signals(),
                "{name}#{i}: signal count changed"
            );
            for s in spec.signals() {
                assert_eq!(
                    spec.signal(s).name,
                    r.stg.signal(s).name,
                    "{name}#{i}: signal renamed"
                );
                assert_eq!(
                    spec.signal(s).kind,
                    r.stg.signal(s).kind,
                    "{name}#{i}: signal kind changed"
                );
            }
            // Liveness + speed independence of the refinement.
            assert!(r.sg.deadlock_states().is_empty(), "{name}#{i}: deadlock");
            assert!(all_events_fire(&r.sg), "{name}#{i}: dead event");
            assert!(
                speed_independence(&r.sg).is_speed_independent(),
                "{name}#{i}: not speed-independent"
            );
            // The incrementally derived graph matches a full rebuild of
            // the candidate STG.
            let rebuilt = build_state_graph(&r.stg)
                .unwrap_or_else(|e| panic!("{name}#{i}: rebuild failed: {e}"));
            assert!(rebuilt == r.sg, "{name}#{i}: incremental graph drifted");
        }
    }
}

#[test]
fn eager_and_lazy_extremes_are_always_present() {
    for (name, spec) in partial_specs() {
        let rs = expand_handshakes(&spec, &ExpansionOptions::default()).unwrap();
        // Eager extreme: first, with no ordering commitments.
        assert!(
            rs.first().unwrap().choices.is_empty(),
            "{name}: eager extreme missing"
        );
        // Lazy extreme: the last candidate is the top of the lattice —
        // its choice set contains every other candidate's choices ...
        let lazy = rs.last().unwrap();
        for (i, r) in rs.iter().enumerate() {
            for c in &r.choices {
                assert!(
                    lazy.choices.contains(c),
                    "{name}#{i}: choice `{c}` not below the lazy extreme"
                );
            }
        }
        // ... and it commits every anchor: no channel edge stays
        // concurrent with a non-channel event (concurrency *between*
        // return-to-zero edges of different channels is never
        // serialized by the lattice and may remain).
        let channel_signals: Vec<String> = spec
            .handshakes()
            .iter()
            .flat_map(|h| {
                [
                    spec.signal(h.req).name.clone(),
                    spec.signal(h.ack).name.clone(),
                ]
            })
            .collect();
        let is_channel = |r: &reshuffle_handshake::Reshuffling, s: reshuffle_petri::SignalId| {
            channel_signals.contains(&r.stg.signal(s).name)
        };
        for (a, b) in concurrent_pairs(&lazy.sg) {
            assert_eq!(
                is_channel(lazy, a.signal),
                is_channel(lazy, b.signal),
                "{name}: lazy extreme left a channel edge concurrent with a spec event"
            );
        }
        // And the lattice respects the enumeration budget while keeping
        // both ends.
        let capped = expand_handshakes(
            &spec,
            &ExpansionOptions {
                max_reshufflings: 2,
            },
        )
        .unwrap();
        assert_eq!(capped.len(), 2, "{name}: budget ignored");
        assert!(capped[0].choices.is_empty(), "{name}: eager lost to cap");
        assert!(
            capped[1].choices.len() >= capped[0].choices.len(),
            "{name}: lazy lost to cap"
        );
    }
}

#[test]
fn complete_corpus_entries_are_not_partial() {
    for (name, src) in examples::ALL {
        if examples::PARTIAL.contains(name) {
            continue;
        }
        let spec = parse_g(src).unwrap();
        assert!(!spec.is_partial(), "{name}: unexpectedly partial");
        let err = expand_handshakes(&spec, &ExpansionOptions::default()).unwrap_err();
        assert_eq!(err, HandshakeError::NotPartial, "{name}: {err:?}");
    }
}

#[test]
fn ranked_selection_strictly_beats_the_eager_expansion_on_pcreq() {
    // The acceptance example: the lattice has >= 2 points and the
    // pipeline's choice synthesizes to strictly fewer literals (and
    // fewer state signals) than the fully-eager expansion.
    let spec = parse_g(PCREQ_G).unwrap();
    let rs = expand_handshakes(&spec, &ExpansionOptions::default()).unwrap();
    assert!(rs.len() >= 2);

    let eager = &rs[0];
    assert!(eager.choices.is_empty());
    let eager_synth = Pipeline::from_stg(&eager.stg)
        .run(&PipelineOptions::default())
        .unwrap()
        .into_synthesis();
    let eager_lits = literal_estimate(&eager_synth.sg);

    let opts = PipelineOptions::new().with_expand(ExpansionOptions::default());
    let selected = run(PCREQ_G, &opts).unwrap();
    let selected_lits = literal_estimate(&selected.sg);

    assert!(!selected.expansion.is_empty(), "selection chose eager");
    assert!(
        selected_lits < eager_lits,
        "selected {selected_lits} literals must strictly beat eager's {eager_lits}"
    );
    assert!(selected.inserted.len() < eager_synth.inserted.len());
}

#[test]
fn trie_realization_beats_chained_on_the_partial_corpus() {
    // The shared-prefix cache must save real work on both partial
    // corpus entries (`hslr`, `pcreq`): every prefix hit is a
    // restriction product the per-point chained path would have run
    // again (the handshake crate's own test counts that path apart).
    for (name, spec) in partial_specs() {
        let e = reshuffle_handshake::expand_handshakes_stats(&spec, &ExpansionOptions::default())
            .unwrap_or_else(|err| panic!("{name}: expansion failed: {err}"));
        assert!(e.stats.prefix_hits > 0, "{name}: no prefix reuse");
    }
}

#[test]
fn partial_specs_error_without_the_expand_stage() {
    for (name, spec) in partial_specs() {
        let src = reshuffle_petri::write_g(&spec);
        match run(&src, &PipelineOptions::default()) {
            Err(PipelineError::Expand(HandshakeError::NotExpanded)) => {}
            other => panic!("{name}: expected NotExpanded, got {other:?}"),
        }
    }
}

#[test]
fn partial_specs_roundtrip_through_the_writer() {
    // The `.handshake` declarations and toggle events survive a
    // write/parse cycle, and the re-parsed spec expands identically.
    for (name, spec) in partial_specs() {
        let text = reshuffle_petri::write_g(&spec);
        let reparsed = parse_g(&text).unwrap_or_else(|e| panic!("{name}: reparse failed: {e}"));
        assert!(reparsed.is_partial());
        assert_eq!(reparsed.handshakes().len(), spec.handshakes().len());
        let a = expand_handshakes(&spec, &ExpansionOptions::default()).unwrap();
        let b = expand_handshakes(&reparsed, &ExpansionOptions::default()).unwrap();
        assert_eq!(a.len(), b.len(), "{name}: lattice changed after roundtrip");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.choices, y.choices, "{name}: choices drifted");
            assert_eq!(
                x.sg.fingerprint(),
                y.sg.fingerprint(),
                "{name}: graphs drifted"
            );
        }
    }
}
