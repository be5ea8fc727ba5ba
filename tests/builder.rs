//! Corpus-wide equivalence of the `run()` shortcut with the staged
//! `Pipeline` chain: for every example in `reshuffle_bench::examples`
//! and every pipeline mode the golden suite pins, both must produce a
//! byte-identical netlist, identical artifacts (inserted signals,
//! serializing moves, expansion choices), and the identical golden-pin
//! row; failures must carry the identical error message. The cache
//! suites below pin that every artifact the cache holds survives the
//! persistence codec.

mod common;

use common::golden_line;
use reshuffle::sg::build_state_graph;
use reshuffle::{
    canonical_fingerprint, parse_g, Diagnostics, ExpansionOptions, MemStore, Pipeline,
    PipelineError, PipelineOptions, ReduceOptions, Stage, Stg, SynthCache, Synthesis,
};
use reshuffle_bench::examples;
use reshuffle_petri::write_g;

/// The four pipeline modes the golden suite pins per corpus entry.
fn modes() -> Vec<(&'static str, PipelineOptions)> {
    vec![
        ("default", PipelineOptions::new()),
        (
            "reduce",
            PipelineOptions::new().with_reduce(ReduceOptions::default()),
        ),
        (
            "expand",
            PipelineOptions::new().with_expand(ExpansionOptions::default()),
        ),
        (
            "exp+red",
            PipelineOptions::new()
                .with_expand(ExpansionOptions::default())
                .with_reduce(ReduceOptions::default()),
        ),
    ]
}

/// Drives the builder one stage transition at a time, mirroring what
/// `opts` encodes — the manual chain a caller inspecting intermediate
/// artifacts would write — against `cache` when one is given.
fn staged(
    src: &str,
    opts: &PipelineOptions,
    cache: Option<&SynthCache>,
) -> Result<(Synthesis, Diagnostics), PipelineError> {
    let mut parsed = Pipeline::from_g(src)?;
    if let Some(cache) = cache {
        parsed = parsed.with_cache(cache);
    }
    let expanded = match &opts.expand {
        Some(eopts) => parsed.expand(eopts)?,
        None => parsed.complete()?,
    };
    let reduced = match &opts.reduce {
        Some(ropts) => expanded.reduce(ropts)?,
        None => expanded.skip_reduce(),
    };
    let resolved = reduced.resolve(&opts.csc)?;
    let done = if opts.skip_verify {
        resolved.synthesize_unverified(opts.style)?
    } else {
        resolved.synthesize(opts.style)?
    };
    Ok(done.into_parts())
}

/// Asserts two outcomes identical: same golden-pin row (the renderer
/// shared with the golden-corpus suite, so the comparison is against
/// the real pin format), and — on success — byte-identical netlists,
/// STGs, state graphs and per-stage artifacts (including the fields
/// the pin format omits for some modes).
fn assert_same(
    name: &str,
    mode: &str,
    what: &str,
    reference: &Result<Synthesis, PipelineError>,
    other: &Result<Synthesis, PipelineError>,
) {
    assert_eq!(
        golden_line(name, mode, reference),
        golden_line(name, mode, other),
        "{name}/{mode}: {what} drifted from run()"
    );
    if let (Ok(a), Ok(b)) = (reference, other) {
        assert_eq!(
            a.netlist.describe(),
            b.netlist.describe(),
            "{name}/{mode}: {what} netlist is not byte-identical"
        );
        assert_eq!(
            write_g(&a.stg),
            write_g(&b.stg),
            "{name}/{mode}: {what} synthesized STG drifted"
        );
        assert_eq!(
            a.sg.fingerprint(),
            b.sg.fingerprint(),
            "{name}/{mode}: {what} state graph drifted"
        );
        assert_eq!(a.moves, b.moves, "{name}/{mode}: {what} move steps drifted");
        assert_eq!(
            a.inserted, b.inserted,
            "{name}/{mode}: {what} inserted signals drifted"
        );
        assert_eq!(
            a.expansion, b.expansion,
            "{name}/{mode}: {what} expansion choices drifted"
        );
    }
}

#[test]
fn builder_matches_legacy_across_the_corpus() {
    for (name, src) in examples::ALL {
        for (mode, opts) in modes() {
            let via_run = Pipeline::from_g(src)
                .and_then(|p| p.run(&opts))
                .map(|done| done.into_synthesis());
            let via_stages = staged(src, &opts, None).map(|(s, _)| s);
            assert_same(name, mode, "staged chain", &via_run, &via_stages);
        }
    }
}

#[test]
fn staged_diagnostics_cover_the_executed_stages() {
    for (name, src) in examples::ALL {
        for (mode, opts) in modes() {
            let Ok((_, diag)) = staged(src, &opts, None) else {
                continue; // failing modes are covered by the suite above
            };
            assert!(
                diag.stage(Stage::Parse).is_some(),
                "{name}/{mode}: no parse report"
            );
            assert!(
                diag.stage(Stage::Expand).is_some(),
                "{name}/{mode}: no expand report"
            );
            assert_eq!(
                diag.stage(Stage::Reduce).is_some(),
                opts.reduce.is_some(),
                "{name}/{mode}: reduce report does not match the options"
            );
            let resolve = diag
                .stage(Stage::Resolve)
                .unwrap_or_else(|| panic!("{name}/{mode}: no resolve report"));
            let synth = diag
                .stage(Stage::Synthesize)
                .unwrap_or_else(|| panic!("{name}/{mode}: no synthesize report"));
            assert!(synth.candidates >= Some(1), "{name}/{mode}: nothing ranked");
            assert!(
                resolve.states.is_some(),
                "{name}/{mode}: resolve lost the state count"
            );
            assert!(
                diag.total_wall().as_nanos() > 0,
                "{name}/{mode}: no wall time recorded"
            );
        }
    }
}

#[test]
fn run_with_cache_replays_every_mode_identically() {
    // One shared cache across the whole corpus: a second pass over all
    // entries and modes must be answered entirely from the cache, with
    // identical netlists and no stage work recorded — by run(), and by
    // the staged chain, which keys its run from the options its
    // transitions recorded and so must hit at synthesize.
    let cache = reshuffle::SynthCache::new();
    let mut first: Vec<(String, String)> = Vec::new();
    for (name, src) in examples::ALL {
        for (mode, opts) in modes() {
            if let Ok(done) = Pipeline::from_g(src).unwrap().with_cache(&cache).run(&opts) {
                first.push((format!("{name}/{mode}"), done.netlist().describe()));
            }
        }
    }
    let misses_after_first = cache.misses();
    // The second pass replays from the persisted form: every entry
    // (final and per-candidate) must survive the journal codec. The
    // recovered cache counts hits and misses from 0.
    let store = MemStore::new();
    cache.compact_to(&store).expect("compaction must write");
    let cache = SynthCache::recover(&store)
        .expect("journal must decode")
        .cache;
    let mut second = Vec::new();
    for (name, src) in examples::ALL {
        for (mode, opts) in modes() {
            if let Ok(done) = Pipeline::from_g(src).unwrap().with_cache(&cache).run(&opts) {
                assert_eq!(done.diagnostics().cache_hits, 1, "{name}/{mode}: not a hit");
                assert!(
                    done.diagnostics().stage(Stage::Synthesize).is_none(),
                    "{name}/{mode}: re-synthesis timing recorded on a cache hit"
                );
                let (hit, diag) = staged(src, &opts, Some(&cache))
                    .unwrap_or_else(|e| panic!("{name}/{mode}: staged chain failed: {e}"));
                assert_eq!(diag.cache_hits, 1, "{name}/{mode}: staged chain missed");
                assert!(
                    diag.stage(Stage::CacheHit).is_some()
                        && diag.stage(Stage::Synthesize).is_none(),
                    "{name}/{mode}: staged chain re-synthesized instead of hitting"
                );
                assert_eq!(
                    hit.netlist.describe(),
                    done.netlist().describe(),
                    "{name}/{mode}: staged hit drifted from run()'s"
                );
                second.push((format!("{name}/{mode}"), done.netlist().describe()));
            }
        }
    }
    assert_eq!(first, second, "cached replay drifted");
    assert_eq!(
        cache.hits(),
        2 * first.len() as u64,
        "every successful mode must replay from the cache, run() and staged"
    );
    // Failing modes miss again (they cache nothing), successes do not.
    assert_eq!(cache.misses(), misses_after_first - first.len() as u64);
}

/// Writes `stg` as `.g`, parses it back, and asserts the canonical
/// fingerprint survived.
fn assert_round_trips(what: &str, stg: &Stg) {
    let text = write_g(stg);
    let back = parse_g(&text).unwrap_or_else(|e| panic!("{what}: {e}\n{text}"));
    assert_eq!(
        canonical_fingerprint(&back),
        canonical_fingerprint(stg),
        "{what}: the written STG is a different net\n{text}"
    );
}

#[test]
fn every_cached_stg_round_trips_through_the_g_writer() {
    for (name, src) in examples::ALL {
        for (mode, opts) in modes() {
            let Ok(done) = Pipeline::from_g(src).unwrap().run(&opts) else {
                continue;
            };
            assert_round_trips(&format!("{name}/{mode}"), &done.synthesis().stg);
            // Every expansion candidate is cached as a standalone run
            // of its complete STG (no pre-reduction: candidates skip
            // it, and so does a chain handed a pre-built graph), so
            // those runs reproduce the per-candidate entries.
            if let Some(eopts) = &opts.expand {
                let mut standalone = opts.clone();
                standalone.expand = None;
                let expanded = Pipeline::from_g(src).unwrap().expand(eopts).unwrap();
                for (i, (cand, _)) in expanded.candidates().enumerate() {
                    let Ok(sg) = build_state_graph(cand) else {
                        continue;
                    };
                    if let Ok(run) = Pipeline::from_parts(cand.clone(), sg).run(&standalone) {
                        let what = format!("{name}/{mode} candidate {i}");
                        assert_round_trips(&what, &run.synthesis().stg);
                    }
                }
            }
        }
    }
}
