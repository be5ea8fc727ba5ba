//! The marking explorer against its reference.
//!
//! `ReachabilityGraph::explore` keeps every marking once in a flat
//! arena, finds it through an open-addressing table of node ids and
//! writes its arcs as CSR. The explorer it replaced, kept in
//! `reference.rs`, hashes heap markings into a `HashMap` and keeps one
//! arc vector per node. On every net here both must give the same
//! marking graph (numbering, markings, arcs in order and peak frontier)
//! or the same error, and a net that explores within its budget is
//! explored again with a budget of exactly its marking count and of one
//! less. Where the net is an STG, the state-graph build must report the
//! exploration's error, or, without toggle signals, number its states
//! as the markings.
//!
//! The nets: the corpus, the generated families, the scaled specs
//! (plain up to n = 7, raw dummy-padded up to n = 5), hand-built nets
//! whose places straddle bitset words (63, 64, 65, 128 and 129 places,
//! safe and unsafe), and the seeded texts of `excitation/seeded.rs`,
//! many of them unsafe or inconsistent.
//!
//! The `#[ignore]`d half runs the scaled specs up to n = 9, the padded
//! ones up to n = 6 and 5,000 seeds of each generator, and checks the
//! peak memory of the n = 12 build; run it in release:
//! `cargo test --release --test explore -- --ignored`.

mod reference;
#[path = "../excitation/seeded.rs"]
mod seeded;

use reshuffle_bench::examples;
use reshuffle_petri::{
    parse_g, Marking, PetriError, PetriNet, PlaceId, Polarity, ReachabilityGraph, Stg,
};
use reshuffle_sg::{build_state_graph_with, BuildOptions, EventId, SgError};

/// What the checked nets did, for the coverage floors.
#[derive(Debug, Default)]
struct Tally {
    graphs: usize,
    markings: usize,
    unsafe_nets: usize,
    over_budget: usize,
    inconsistent: usize,
}

/// Explores `net` from `m0` with both explorers and asserts the same
/// outcome; returns the marking count.
fn same(at: &str, net: &PetriNet, m0: &Marking, budget: usize) -> Result<usize, PetriError> {
    let want = reference::explore(net, m0, budget);
    match (ReachabilityGraph::explore(net, m0, budget), want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.len(), want.markings.len(), "{at}: markings");
            assert_eq!(got.peak_frontier(), want.peak_frontier, "{at}: frontier");
            let arcs: usize = want.succs.iter().map(Vec::len).sum();
            assert_eq!(got.num_arcs(), arcs, "{at}: arcs");
            for (s, (m, succs)) in want.markings.iter().zip(&want.succs).enumerate() {
                assert_eq!(got.marking(s as u32), *m, "{at}: marking of node {s}");
                let want = succs.iter().copied();
                assert!(got.successors(s as u32).eq(want), "{at}: arcs of node {s}");
            }
            Ok(got.len())
        }
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "{at}: error");
            Err(got)
        }
        (got, want) => panic!(
            "{at}: {:?} against the reference's {:?}",
            got.map(|g| g.len()),
            want.map(|w| w.markings.len())
        ),
    }
}

/// [`same`] under `budget`; then, if the net fits, under a budget of
/// exactly its marking count and of one less, and otherwise under the
/// budgets 1 to 3, which pin which error comes first.
fn check(at: &str, net: &PetriNet, m0: &Marking, budget: usize, tally: &mut Tally) {
    match same(at, net, m0, budget) {
        Ok(n) => {
            tally.graphs += 1;
            tally.markings += n;
            assert_eq!(same(&format!("{at} at budget {n}"), net, m0, n), Ok(n));
            let below = same(&format!("{at} at budget {}", n - 1), net, m0, n - 1);
            assert_eq!(below, Err(PetriError::StateBudgetExceeded(n - 1)), "{at}");
        }
        Err(e) => {
            match e {
                PetriError::UnsafePlace { .. } => tally.unsafe_nets += 1,
                PetriError::StateBudgetExceeded(_) => tally.over_budget += 1,
                _ => {}
            }
            for b in 1..=3 {
                let _ = same(&format!("{at} at budget {b}"), net, m0, b);
            }
        }
    }
}

/// [`check`] on `stg`'s net, then the state-graph build under the same
/// budget: it must fail with the exploration's error, or, when it
/// succeeds without toggle signals, have the marking graph's numbering
/// and arcs.
fn check_stg(at: &str, stg: &Stg, budget: usize, tally: &mut Tally) {
    let m0 = stg.initial_marking();
    check(at, stg.net(), &m0, budget, tally);
    if stg.validate().is_err() || stg.num_signals() > 64 {
        return;
    }
    let opts = BuildOptions {
        state_budget: budget,
        ..Default::default()
    };
    let built = build_state_graph_with(stg, &opts);
    match (reference::explore(stg.net(), &m0, budget), built) {
        (Err(want), got) => assert_eq!(got.err(), Some(SgError::Petri(want)), "{at}: build"),
        (Ok(want), Ok(sg)) if !has_toggles(stg) => {
            assert_eq!(sg.num_states(), want.markings.len(), "{at}: states");
            for (s, succs) in want.succs.iter().enumerate() {
                let arcs = succs.iter().map(|&(t, tgt)| (EventId(t.0), tgt));
                assert!(sg.succ(s as u32).iter().eq(arcs), "{at}: arcs of state {s}");
            }
        }
        (Ok(_), Err(SgError::Inconsistent { .. })) => tally.inconsistent += 1,
        (Ok(_), _) => {}
    }
}

fn has_toggles(stg: &Stg) -> bool {
    stg.transitions().any(|t| {
        stg.edge_of(t)
            .is_some_and(|e| e.polarity == Polarity::Toggle)
    })
}

/// A hub place and two chains over the other `places - 1`: `fork` puts
/// the hub's token on both chains' heads (chain B's first in postset
/// order), each chain's token steps along it, `join` takes both tails
/// back to the hub, and `peek` reads the hub through a self-loop. The
/// places in `extra` are marked too; a second token on a chain makes the
/// net unsafe.
fn two_chains(places: usize, extra: &[usize]) -> (PetriNet, Marking) {
    let mut net = PetriNet::new();
    let p: Vec<PlaceId> = (0..places)
        .map(|i| net.add_place(format!("p{i}")))
        .collect();
    let (a, b) = p[1..].split_at((places - 1) / 2);
    let fork = net.add_transition("fork");
    net.add_arc_pt(p[0], fork).unwrap();
    net.add_arc_tp(fork, b[0]).unwrap();
    net.add_arc_tp(fork, a[0]).unwrap();
    for (name, chain) in [("a", a), ("b", b)] {
        for (i, w) in chain.windows(2).enumerate() {
            let t = net.add_transition(format!("{name}{i}"));
            net.add_arc_pt(w[0], t).unwrap();
            net.add_arc_tp(t, w[1]).unwrap();
        }
    }
    let join = net.add_transition("join");
    net.add_arc_pt(a[a.len() - 1], join).unwrap();
    net.add_arc_pt(b[b.len() - 1], join).unwrap();
    net.add_arc_tp(join, p[0]).unwrap();
    let peek = net.add_transition("peek");
    net.add_arc_pt(p[0], peek).unwrap();
    net.add_arc_tp(peek, p[0]).unwrap();
    let marked: Vec<PlaceId> = [0].iter().chain(extra).map(|&i| p[i]).collect();
    (net, Marking::with_tokens(places, &marked))
}

/// The `.g` texts the mutation generator edits, as in the excitation
/// sweep: the corpus and small members of the generated families.
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

/// `seeds` choice specs and `seeds` mutations of each source, through
/// [`check_stg`] under a budget of 2,000 markings.
fn check_seeded(seeds: u64, tally: &mut Tally) {
    let sources = mutation_sources();
    for seed in 0..seeds {
        let mut texts = vec![(format!("choice seed {seed}"), seeded::choice_spec(seed))];
        for (i, src) in sources.iter().enumerate() {
            texts.push((
                format!("source {i} mutation {seed}"),
                seeded::mutate(src, seed),
            ));
        }
        for (at, g) in texts {
            if let Ok(stg) = parse_g(&g) {
                check_stg(&at, &stg, 2000, tally);
            }
        }
    }
}

/// The generated families at sizes 1 to `k` and the scaled specs,
/// plain up to `plain` and raw dummy-padded up to `padded`.
fn check_families(k: usize, plain: usize, padded: usize, tally: &mut Tally) {
    let budget = reshuffle_petri::DEFAULT_STATE_BUDGET;
    for i in 1..=k {
        for src in [
            examples::pulses(i, false),
            examples::pulses(i, true),
            examples::two_channel(i),
            examples::ring(i),
        ] {
            let stg = parse_g(&src).unwrap();
            check_stg(&stg.name.clone(), &stg, budget, tally);
        }
    }
    for n in 1..=plain {
        let stg = parse_g(&examples::scaled_pipeline(n)).unwrap();
        check_stg(&format!("scaled{n}"), &stg, budget, tally);
    }
    for n in 1..=padded {
        let stg = parse_g(&examples::scaled_pipeline_padded(n)).unwrap();
        check_stg(&format!("padded{n}"), &stg, budget, tally);
        assert_eq!(
            ReachabilityGraph::explore_default(stg.net(), &stg.initial_marking())
                .unwrap()
                .len(),
            examples::scaled_pipeline_padded_states(n)
        );
    }
}

#[test]
fn the_explorer_equals_the_reference_on_the_corpus_and_families() {
    let mut tally = Tally::default();
    for (name, src) in examples::ALL {
        let stg = parse_g(src).unwrap();
        check_stg(
            name,
            &stg,
            reshuffle_petri::DEFAULT_STATE_BUDGET,
            &mut tally,
        );
    }
    check_families(3, 7, 5, &mut tally);
    assert!(tally.graphs >= 30 && tally.markings >= 9_000, "{tally:?}");
}

#[test]
fn the_explorer_equals_the_reference_across_word_boundaries() {
    let mut tally = Tally::default();
    for places in [63, 64, 65, 128, 129] {
        let half = (places - 1) / 2;
        for (what, extra) in [
            ("safe", vec![]),
            // The chain-A token behind the one at its middle catches
            // up with it.
            ("a second token", vec![half / 2]),
            // `fork` clashes on both heads and names B's, the first in
            // its postset.
            ("marked heads", vec![1, half + 1]),
        ] {
            let (net, m0) = two_chains(places, &extra);
            check(
                &format!("{places} places, {what}"),
                &net,
                &m0,
                1 << 20,
                &mut tally,
            );
        }
        let (net, m0) = two_chains(places, &[1, half + 1]);
        let e = ReachabilityGraph::explore(&net, &m0, 10).unwrap_err();
        let place = PlaceId::from_index(half + 1);
        assert!(
            matches!(e, PetriError::UnsafePlace { place: p, .. } if p == place),
            "{e}"
        );
    }
    assert_eq!((tally.graphs, tally.unsafe_nets), (5, 10), "{tally:?}");
}

#[test]
fn the_explorer_equals_the_reference_on_seeded_nets() {
    let mut tally = Tally::default();
    check_seeded(40, &mut tally);
    println!("{tally:?}");
    assert!(tally.graphs >= 200, "{tally:?}");
    assert!(
        tally.unsafe_nets >= 5 && tally.inconsistent >= 5,
        "{tally:?}"
    );
}

#[test]
fn exploration_errors_come_before_labelling_errors() {
    // `a+` fires twice in a row (inconsistent), and its first firing
    // already puts a second token into `q` (unsafe).
    let stg = parse_g(
        ".model both\n.inputs a\n.graph\np0 a+\na+ q a+/2\na+/2 p0\nq a+/2\n\
         .marking { p0 q }\n.end\n",
    )
    .unwrap();
    let e = build_state_graph_with(&stg, &BuildOptions::default()).unwrap_err();
    assert!(
        matches!(e, SgError::Petri(PetriError::UnsafePlace { .. })),
        "{e}"
    );
}

/// The same checks on larger scaled specs and the full seeded sets; run
/// it in release: `cargo test --release --test explore -- --ignored`.
#[test]
#[ignore = "slow in debug; CI runs it in release"]
fn the_explorer_equals_the_reference_across_sizes_and_seeds() {
    let mut tally = Tally::default();
    check_families(3, 9, 6, &mut tally);
    assert!(tally.markings >= 60_000, "{tally:?}");
    println!("{tally:?}");
    let mut tally = Tally::default();
    check_seeded(5000, &mut tally);
    println!("{tally:?}");
    assert!(tally.graphs >= 20_000, "{tally:?}");
    assert!(
        tally.unsafe_nets >= 1000 && tally.inconsistent >= 1000,
        "{tally:?}"
    );
}

/// The `scaled_pipeline(12)` build (1,062,884 states) in a child process
/// of its own, whose peak resident memory (`VmHWM`) must stay within 1.5
/// times the bytes of the built graph's codes, offsets and arc arrays.
#[test]
#[ignore = "builds a million states; CI runs it in release"]
#[cfg(target_os = "linux")]
fn the_n12_build_peaks_within_one_and_a_half_times_its_arrays() {
    const CHILD: &str = "RESHUFFLE_EXPLORE_PEAK_CHILD";
    const NAME: &str = "the_n12_build_peaks_within_one_and_a_half_times_its_arrays";
    if std::env::var_os(CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                NAME,
                "--exact",
                "--ignored",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(CHILD, "1")
            .output()
            .unwrap();
        let log = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        let peak = log.lines().find_map(|l| l.find("peak ").map(|i| &l[i..]));
        assert!(out.status.success() && peak.is_some(), "{log}");
        println!("{}", peak.unwrap());
        return;
    }
    let stg = parse_g(&examples::scaled_pipeline(12)).unwrap();
    let opts = BuildOptions {
        state_budget: 2_000_000,
        ..Default::default()
    };
    let sg = build_state_graph_with(&stg, &opts).unwrap();
    assert_eq!(sg.num_states(), examples::scaled_pipeline_states(12));
    let arrays = 8 * sg.num_states() + 4 * (sg.num_states() + 1) + 8 * sg.num_arcs();
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let peak_kb: usize = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .map(|v| v.trim().parse().unwrap())
        .expect("VmHWM in /proc/self/status");
    let peak = peak_kb * 1024;
    println!("peak {peak} bytes, arrays {arrays} bytes");
    assert!(2 * peak <= 3 * arrays, "peak {peak} > 1.5 x {arrays}");
}
