//! Memoized shared derivation against the per-signal reference.
//!
//! `derive_all_functions` classifies every signal of a graph in one
//! pass over its states, gives every conflict-free signal the same
//! don't-care set, the unreachable codes, and minimizes only the
//! functions its `CoverMemo` has not seen. The reference here rebuilds
//! the per-signal derivation from public primitives: each signal's
//! table from `implied_value`, state by state, then its own don't-care
//! set — `complement` and `minimize` up to 4096 reachable codes,
//! `minimize_codes` above. Both must give the same covers (`==`), or the
//! same CSC violation, under both conflict policies. Each sweep derives
//! every graph through one memo, so a cover stored for one graph or
//! policy answers all the others with an equal key.
//!
//! The `#[ignore]`d sweep covers every reshuffling of the generated
//! families, their reduce results, every CSC candidate the resolver
//! ranks, and the scaled specs at n = 8 and 9; run it in release:
//! `cargo test --release --test derive -- --ignored`.

use reshuffle::logic::{complement, minimize, minimize_codes, Cover};
use reshuffle::{ExpansionOptions, Pipeline, PipelineOptions, ReduceOptions};
use reshuffle_bench::examples;
use reshuffle_handshake::expand_handshakes;
use reshuffle_petri::structural::insert_state_signal;
use reshuffle_petri::{parse_g, SignalId, Stg, TransitionId};
use reshuffle_reduce::reduce_concurrency_from;
use reshuffle_sg::csc::analyze_csc;
use reshuffle_sg::nextstate::implied_value;
use reshuffle_sg::props::speed_independence;
use reshuffle_sg::restrict::insert_series_pair;
use reshuffle_sg::{build_state_graph, SgError, StateGraph};
use reshuffle_synth::{
    derive_all_functions, literal_estimate, ConflictPolicy, CoverMemo, CscOptions,
};
use reshuffle_synth::{resolve_csc_analyzed, SynthError};

/// Covers in signal order, or the violating signal and its conflicts.
type Derived = Result<Vec<(SignalId, Cover)>, (String, usize)>;

fn shared(sg: &StateGraph, policy: ConflictPolicy, memo: &CoverMemo) -> Derived {
    match derive_all_functions(sg, policy, memo) {
        Ok(fs) => Ok(fs.into_iter().map(|f| (f.signal, f.cover)).collect()),
        Err(SynthError::CscViolation { signal, conflicts }) => Err((signal, conflicts)),
        Err(e) => panic!("derive_all_functions: {e}"),
    }
}

/// The per-signal derivation: one signal's codes sorted into on, off
/// and conflicting lists, then minimized against its own don't-care set
/// (unreachable codes plus its conflicts).
fn per_signal(sg: &StateGraph, policy: ConflictPolicy) -> Derived {
    let nv = sg.num_signals();
    let mut out = Vec::new();
    for i in 0..nv {
        let signal = SignalId::from_index(i);
        if !sg.signal(signal).kind.is_noninput() {
            continue;
        }
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for s in sg.state_ids() {
            let side = if implied_value(sg, s, signal) {
                &mut on
            } else {
                &mut off
            };
            side.push(sg.code(s));
        }
        for side in [&mut on, &mut off] {
            side.sort_unstable();
            side.dedup();
        }
        let conflicting: Vec<u64> = on
            .iter()
            .filter(|c| off.binary_search(c).is_ok())
            .copied()
            .collect();
        if !conflicting.is_empty() && policy == ConflictPolicy::Reject {
            return Err((sg.signal(signal).name.clone(), conflicting.len()));
        }
        on.retain(|c| conflicting.binary_search(c).is_err());
        off.retain(|c| conflicting.binary_search(c).is_err());
        let cover = if on.len() + off.len() + conflicting.len() <= 4096 {
            let on = Cover::from_minterms(nv, &on);
            let dc = complement(&on.or(&Cover::from_minterms(nv, &off)));
            minimize(&on, &dc)
        } else {
            minimize_codes(nv, &on, &off)
        };
        out.push((signal, cover));
    }
    Ok(out)
}

/// Asserts shared == per-signal under both policies, deriving through
/// `memo`; returns whether some signal of `sg` has conflicting codes.
fn check(at: &str, sg: &StateGraph, memo: &CoverMemo) -> bool {
    let mut conflicting = false;
    for policy in [ConflictPolicy::Reject, ConflictPolicy::DontCare] {
        let got = shared(sg, policy, memo);
        conflicting |= got.is_err();
        assert_eq!(got, per_signal(sg, policy), "{at}: {policy:?}");
    }
    conflicting
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

#[test]
fn shared_derivation_equals_per_signal_on_the_corpus_and_scaled_specs() {
    let memo = CoverMemo::new();
    let mut graphs = 0;
    let mut conflicting = Vec::new();
    for (name, src) in examples::ALL {
        let spec = parse_g(src).unwrap();
        // The spec's own graph, or every reshuffling of a partial one,
        // then each mode's result.
        let mut sgs: Vec<(String, StateGraph)> = if spec.is_partial() {
            let rs = expand_handshakes(&spec, &ExpansionOptions::default()).unwrap();
            let at = |i| format!("{name}#{i}");
            rs.into_iter()
                .enumerate()
                .map(|(i, r)| (at(i), r.sg))
                .collect()
        } else {
            vec![(name.to_string(), build_state_graph(&spec).unwrap())]
        };
        for (mode, opts) in modes() {
            if let Ok(done) = Pipeline::from_g(src).and_then(|p| p.run(&opts)) {
                sgs.push((format!("{name} {mode}"), done.into_synthesis().sg));
            }
        }
        for (at, sg) in sgs {
            graphs += 1;
            if check(&at, &sg, &memo) {
                conflicting.push(at);
            }
        }
    }
    // Up to 4096 reachable codes the cube-list path runs, above it the
    // BDD path (n = 7 plain has 4,376 codes). The padded graphs keep
    // their dummy events, which excite no signal.
    for n in 1..=7 {
        for (at, src) in [
            (format!("scaled{n}"), examples::scaled_pipeline(n)),
            (format!("padded{n}"), examples::scaled_pipeline_padded(n)),
        ] {
            let sg = build_state_graph(&parse_g(&src).unwrap()).unwrap();
            assert!(!check(&at, &sg, &memo), "{at}: unexpected CSC conflict");
            graphs += 1;
        }
    }
    // The conflicting graphs are where a signal keeps its own
    // don't-care set under `DontCare`.
    for name in ["mfig1", "creq", "pcreq#"] {
        assert!(
            conflicting.iter().any(|at| at.starts_with(name)),
            "no conflicting {name} graph in {conflicting:?}"
        );
    }
    assert!(graphs >= 60, "too few graphs checked: {graphs}");
    assert!(memo.hits() > memo.misses(), "{memo:?}");
}

/// Walks the greedy CSC search from `(stg, sg)` as the resolver does,
/// checking every candidate of every round's ranked pool (the
/// least-conflict candidates, at most `rank_pool` of them) through
/// `memo`. Returns the number of ranked candidates checked.
fn walk_ranked(label: &str, stg: &Stg, sg: &StateGraph, memo: &CoverMemo) -> usize {
    let opts = CscOptions::default();
    let mut parent = stg.clone();
    let mut parent_sg = sg.clone();
    let mut conflicts = analyze_csc(sg).num_csc_conflicts();
    let mut inserted = 0;
    let mut ranked = 0;
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
        let pool: Vec<_> = feasible
            .into_iter()
            .filter(|(c, ..)| *c == best)
            .take(opts.rank_pool)
            .collect();
        for (i, (.., cand_sg)) in pool.iter().enumerate() {
            check(&format!("{label}: {name} ranked #{i}"), cand_sg, memo);
            ranked += 1;
        }
        let (c, x, y, next_sg) = pool
            .into_iter()
            .min_by_key(|(.., g)| literal_estimate(g))
            .expect("the pool holds the best candidate");
        parent = insert_state_signal(&parent, &name, x, y).unwrap().0;
        parent_sg = next_sg;
        conflicts = c;
        inserted += 1;
    }
    // The walk took the resolver's path.
    if let Ok(r) = resolve_csc_analyzed(stg, sg.clone(), &analyze_csc(sg), &opts) {
        assert!(
            r.sg == parent_sg,
            "{label}: the walk left the resolver's path"
        );
    }
    ranked
}

/// The same equality over the generated families; run it in release:
/// `cargo test --release --test derive -- --ignored`.
#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn shared_derivation_equals_per_signal_across_families() {
    let mut families: Vec<String> = (1..=3).map(examples::two_channel).collect();
    for k in 2..=3 {
        families.push(examples::pulses(k, false));
        families.push(examples::pulses(k, true));
        families.push(examples::ring(k));
    }
    let memo = CoverMemo::new();
    let mut checked = [0; 3];
    let all = ExpansionOptions {
        max_reshufflings: 4096,
    };
    for src in &families {
        let spec = parse_g(src).unwrap();
        for (i, r) in expand_handshakes(&spec, &all).unwrap().iter().enumerate() {
            let at = format!("{}#{i}", spec.name);
            check(&at, &r.sg, &memo);
            checked[0] += 1;
            checked[2] += walk_ranked(&at, &r.stg, &r.sg, &memo);
            let reduced = reduce_concurrency_from(&r.stg, r.sg.clone(), &ReduceOptions::default());
            if let Ok(red) = reduced {
                let at = format!("{at} reduced");
                check(&at, &red.sg, &memo);
                checked[1] += 1;
                checked[2] += walk_ranked(&at, &red.stg, &red.sg, &memo);
            }
        }
    }
    for n in [8, 9] {
        for (at, src) in [
            (format!("scaled{n}"), examples::scaled_pipeline(n)),
            (format!("padded{n}"), examples::scaled_pipeline_padded(n)),
        ] {
            let sg = build_state_graph(&parse_g(&src).unwrap()).unwrap();
            assert!(!check(&at, &sg, &memo), "{at}: unexpected CSC conflict");
        }
    }
    let [reshufflings, reductions, ranked] = checked;
    assert!(reshufflings >= 225, "too few reshufflings: {reshufflings}");
    assert!(reductions >= 225, "too few reduce results: {reductions}");
    assert!(ranked >= 3000, "too few ranked candidates: {ranked}");
}
