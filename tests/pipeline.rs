//! Cross-crate integration: parse a `.g` STG, build the state graph,
//! check coding, derive next-state logic, and run the facade pipeline —
//! plus the golden-corpus regression suite that pins literal counts and
//! signal sets for every example in `reshuffle_bench::examples`.

mod common;

use reshuffle::{
    ExpansionOptions, Pipeline, PipelineError, PipelineOptions, ReduceOptions, Synthesis,
};
use reshuffle_bench::examples::{self, XYZ_G};
use reshuffle_petri::parse_g;
use reshuffle_sg::{build_state_graph, csc::analyze_csc, props::speed_independence};
use reshuffle_synth::{derive_all_functions, verify_against_sg, ConflictPolicy};
use reshuffle_timing::{simulate, DelayModel, SimOptions};

/// One-shot builder run: parse, then every stage `opts` selects.
fn run(src: &str, opts: &PipelineOptions) -> reshuffle::Result<Synthesis> {
    Pipeline::from_g(src)?.run(opts).map(|d| d.into_synthesis())
}

#[test]
fn parse_to_netlist_step_by_step() {
    // Stage 1: parse.
    let stg = parse_g(XYZ_G).expect("parse");
    assert_eq!(stg.net().num_transitions(), 6);

    // Stage 2: state graph.
    let sg = build_state_graph(&stg).expect("state graph");
    assert_eq!(sg.num_states(), 6);
    assert!(speed_independence(&sg).is_speed_independent());

    // Stage 3: coding.
    let csc = analyze_csc(&sg);
    assert!(csc.has_csc(), "xyz must be CSC-clean");

    // Stage 4: next-state functions for the two outputs.
    let funcs = derive_all_functions(&sg, ConflictPolicy::Reject).expect("functions");
    assert_eq!(funcs.len(), 2);
    for f in &funcs {
        assert!(!f.cover.is_empty(), "empty cover for an output");
    }

    // Stage 5: mapped netlist, verified against the specification.
    let netlist = run(XYZ_G, &PipelineOptions::default())
        .expect("facade pipeline")
        .netlist;
    verify_against_sg(&sg, &netlist).expect("verification");

    // Stage 6: timing closes the loop (2+1 delays, 6-event cycle).
    let delays = DelayModel::uniform(&stg, 2.0, 1.0);
    let run = simulate(&stg, &delays, &SimOptions::default()).expect("timed run");
    assert_eq!(run.period, 8.0); // x+ x- are inputs (2.0), four outputs 1.0
    assert_eq!(run.input_events_on_cycle, 2);
}

#[test]
fn facade_rejects_malformed_sources_by_stage() {
    assert!(matches!(
        run(".model nothing\n.end\n", &PipelineOptions::default()),
        Err(PipelineError::Parse(_))
    ));
    // An inconsistent STG (b rises twice per cycle, never falls) fails
    // no later than the state-graph stage.
    let inconsistent = ".model bad\n.inputs a\n.outputs b\n.graph\n\
         a+ b+\nb+ b+/2\nb+/2 a-\na- a+\n.marking { <a-,a+> }\n.end\n";
    match run(inconsistent, &PipelineOptions::default()) {
        Err(PipelineError::Parse(_)) | Err(PipelineError::StateGraph(_)) => {}
        other => panic!("expected staged failure, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Golden-corpus regression suite.
//
// Every example in `reshuffle_bench::examples::ALL` is synthesized
// four ways — default pipeline, with the Section 4 concurrency-reduction
// stage, with the Section 3 handshake-expansion stage, and with both
// composed — and the outcome is rendered to one line per run: literal
// count, timed cycle, sorted signal set, inserted state signals, plus
// the serializing moves (reduce modes) and winning ordering choices
// (expand modes). Partial corpus entries error out of the non-expand
// modes by design; complete entries pass through the expand stage
// untouched. The lines must match `GOLDEN` exactly.
//
// To re-bless after an intentional change: run
//   cargo test -q golden_corpus -- --nocapture
// and replace the body of `GOLDEN` with the `actual:` block the
// failure prints (one copy-paste edit).
// ---------------------------------------------------------------------

/// The four pipeline modes pinned per corpus entry.
fn golden_modes() -> Vec<(&'static str, PipelineOptions)> {
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

/// Expected outcome lines, one per (example, mode), in corpus order.
const GOLDEN: &[&str] = &[
    "toggle   default lits=1 cycle=6.0 signals=[a,b] inserted=[]",
    "toggle   reduce  lits=1 cycle=6.0 signals=[a,b] inserted=[] moves=[]",
    "toggle   expand  lits=1 cycle=6.0 signals=[a,b] inserted=[] choices=[]",
    "toggle   exp+red lits=1 cycle=6.0 signals=[a,b] inserted=[] moves=[] choices=[]",
    "xyz      default lits=2 cycle=8.0 signals=[x,y,z] inserted=[]",
    "xyz      reduce  lits=2 cycle=8.0 signals=[x,y,z] inserted=[] moves=[]",
    "xyz      expand  lits=2 cycle=8.0 signals=[x,y,z] inserted=[] choices=[]",
    "xyz      exp+red lits=2 cycle=8.0 signals=[x,y,z] inserted=[] moves=[] choices=[]",
    "lr       default lits=2 cycle=12.0 signals=[la,lr,ra,rr] inserted=[]",
    "lr       reduce  lits=2 cycle=12.0 signals=[la,lr,ra,rr] inserted=[] moves=[]",
    "lr       expand  lits=2 cycle=12.0 signals=[la,lr,ra,rr] inserted=[] choices=[]",
    "lr       exp+red lits=2 cycle=12.0 signals=[la,lr,ra,rr] inserted=[] moves=[] choices=[]",
    "mmu      default lits=4 cycle=12.0 signals=[x,y1,y2,y3,y4] inserted=[]",
    "mmu      reduce  lits=4 cycle=12.0 signals=[x,y1,y2,y3,y4] inserted=[] moves=[]",
    "mmu      expand  lits=4 cycle=12.0 signals=[x,y1,y2,y3,y4] inserted=[] choices=[]",
    "mmu      exp+red lits=4 cycle=12.0 signals=[x,y1,y2,y3,y4] inserted=[] moves=[] choices=[]",
    "par      default lits=8 cycle=12.0 signals=[a1,a2,done,go,r1,r2] inserted=[]",
    "par      reduce  lits=3 cycle=18.0 signals=[a1,a2,done,go,r1,r2] inserted=[] moves=[a1- -> r2-,a1+ -> r2+]",
    "par      expand  lits=8 cycle=12.0 signals=[a1,a2,done,go,r1,r2] inserted=[] choices=[]",
    "par      exp+red lits=3 cycle=18.0 signals=[a1,a2,done,go,r1,r2] inserted=[] moves=[a1- -> r2-,a1+ -> r2+] choices=[]",
    "mfig1    default error=synthesis: CSC resolution stalled with 1 conflicts after inserting 0 signals",
    "mfig1    reduce  lits=1 cycle=6.0 signals=[Ack,Req] inserted=[] moves=[Ack- -> Req+]",
    "mfig1    expand  error=synthesis: CSC resolution stalled with 1 conflicts after inserting 0 signals",
    "mfig1    exp+red lits=1 cycle=6.0 signals=[Ack,Req] inserted=[] moves=[Ack- -> Req+] choices=[]",
    "creq     default lits=11 cycle=8.0 signals=[Ack,Go,Req,csc0] inserted=[csc0]",
    "creq     reduce  lits=2 cycle=8.0 signals=[Ack,Go,Req] inserted=[] moves=[Go- -> Req+]",
    "creq     expand  lits=11 cycle=8.0 signals=[Ack,Go,Req,csc0] inserted=[csc0] choices=[]",
    "creq     exp+red lits=2 cycle=8.0 signals=[Ack,Go,Req] inserted=[] moves=[Go- -> Req+] choices=[]",
    "hslr     default error=expansion: specification is partial; run handshake expansion before synthesis",
    "hslr     reduce  error=expansion: specification is partial; run handshake expansion before synthesis",
    "hslr     expand  lits=18 cycle=12.0 signals=[csc0,csc1,la,lr,ra,rr] inserted=[csc0,csc1] choices=[]",
    "hslr     exp+red lits=2 cycle=12.0 signals=[la,lr,ra,rr] inserted=[] moves=[ra- -> la-,lr- -> rr-] choices=[]",
    "pcreq    default error=expansion: specification is partial; run handshake expansion before synthesis",
    "pcreq    reduce  error=expansion: specification is partial; run handshake expansion before synthesis",
    "pcreq    expand  lits=6 cycle=9.0 signals=[Ack,Go,Req,csc0] inserted=[csc0] choices=[Go+ -> Req-,Go- -> Ack-]",
    "pcreq    exp+red lits=2 cycle=8.0 signals=[Ack,Go,Req] inserted=[] moves=[Go+ -> Req-,Ack- -> Go-] choices=[]",
];

use common::golden_line;

#[test]
fn golden_corpus() {
    let mut actual = Vec::new();
    for (name, src) in examples::ALL {
        for (mode, opts) in golden_modes() {
            actual.push(golden_line(name, mode, &run(src, &opts)));
        }
    }
    let expected: Vec<String> = GOLDEN.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        actual,
        expected,
        "\n== golden corpus drifted; to re-bless, replace GOLDEN with ==\nactual:\n{}\n",
        actual.join("\n")
    );
}

#[test]
fn prereduce_is_outcome_neutral_across_corpus_and_modes() {
    // Structural pre-reduction may only rewrite the net, never the
    // behaviour: for every corpus entry and every pipeline mode, the
    // run without it must produce the identical golden outcome line,
    // and — where synthesis succeeds — the identical final state-graph
    // fingerprint. A chain handed a pre-built graph skips
    // pre-reduction, which gives the run without it.
    for (name, src) in examples::ALL {
        for (mode, opts) in golden_modes() {
            let on = run(src, &opts);
            let stg = parse_g(src).unwrap();
            let sg = build_state_graph(&stg).unwrap();
            let off = Pipeline::from_parts(stg, sg)
                .run(&opts)
                .map(|d| d.into_synthesis());
            assert_eq!(
                golden_line(name, mode, &on),
                golden_line(name, mode, &off),
                "{name}/{mode}: prereduce changed the synthesis outcome"
            );
            if let (Ok(a), Ok(b)) = (&on, &off) {
                assert_eq!(
                    a.sg.fingerprint(),
                    b.sg.fingerprint(),
                    "{name}/{mode}: prereduce changed the final state graph"
                );
            }
        }
    }
}

#[test]
fn golden_corpus_netlists_verify() {
    // Golden literal counts alone could pin a wrong implementation;
    // every successfully synthesized netlist must also model-check
    // against its (possibly transformed) state graph.
    for (name, src) in examples::ALL {
        for (_, opts) in golden_modes() {
            if let Ok(s) = run(src, &opts) {
                verify_against_sg(&s.sg, &s.netlist)
                    .unwrap_or_else(|e| panic!("{name}: verification failed: {e}"));
            }
        }
    }
}
