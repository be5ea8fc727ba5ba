//! End-to-end facade for the `reshuffle` workspace.
//!
//! This crate ties the member crates of the DAC 1999 reproduction —
//! *Automatic Synthesis and Optimization of Partially Specified
//! Asynchronous Systems* — into one pipeline:
//!
//! 1. parse an astg (`.g`) specification ([`petri`]);
//! 2. if the specification is *partial* (open `.handshake` channels,
//!    two-phase toggle events), expand it: enumerate the reshuffling
//!    lattice (Section 3, [`handshake`]), run every surviving candidate
//!    through the rest of the pipeline, and keep the best by (state
//!    signals inserted, literal estimate, timed cycle);
//! 3. build the binary-encoded state graph ([`sg`]);
//! 4. check speed independence and Complete State Coding ([`sg`]);
//! 5. optionally reduce concurrency (Section 4, [`reduce`]) — run
//!    before CSC resolution so serializations that dissolve conflicts
//!    are preferred over state-signal insertion;
//! 6. resolve remaining CSC conflicts by state-signal insertion
//!    ([`synth`]);
//! 7. derive, minimize, and map next-state logic ([`logic`], [`synth`]);
//! 8. verify the mapped netlist against the specification ([`synth`]).
//!
//! The primary API is the stage-typed [`Pipeline`] builder: each stage
//! (`Parsed -> Expanded -> Reduced -> Resolved -> Synthesized`) exposes
//! its artifacts, each transition takes that stage's options, a
//! [`Diagnostics`] record collects per-stage wall times and counters,
//! and a [`SynthCache`] turns repeated identical runs into O(1)
//! lookups — and, as a journal in a [`CacheStore`], persists them
//! across processes.
//!
//! # Example
//!
//! ```
//! use reshuffle::{Pipeline, PipelineOptions};
//!
//! // The xyz example: a 3-signal cycle with distinct state codes.
//! let done = Pipeline::from_g(
//!     ".model xyz\n.inputs x\n.outputs y z\n.graph\n\
//!      x+ y+\ny+ z+\nz+ x-\nx- y-\ny- z-\nz- x+\n\
//!      .marking { <z-,x+> }\n.end\n",
//! )?
//! .run(&PipelineOptions::default())?;
//! assert_eq!(done.netlist().signals().len(), 3);
//! # Ok::<(), reshuffle::PipelineError>(())
//! ```
//!
//! The same run through the builder, inspecting as it goes:
//!
//! ```
//! use reshuffle::{ImplStyle, Pipeline};
//!
//! # fn main() -> Result<(), reshuffle::PipelineError> {
//! # let src = ".model xyz\n.inputs x\n.outputs y z\n.graph\n\
//! #      x+ y+\ny+ z+\nz+ x-\nx- y-\ny- z-\nz- x+\n\
//! #      .marking { <z-,x+> }\n.end\n";
//! let expanded = Pipeline::from_g(src)?.complete()?;
//! assert_eq!(expanded.state_graph().num_states(), 6);
//! let done = expanded
//!     .skip_reduce()
//!     .resolve(&Default::default())?
//!     .synthesize(ImplStyle::ComplexGate)?;
//! assert_eq!(done.netlist().signals().len(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use std::fmt;

mod cache;
mod diag;
mod pipeline;
mod store;

/// Petri nets, STGs, `.g` parsing ([`reshuffle_petri`]).
pub use reshuffle_petri as petri;

/// Two-level logic and factoring ([`reshuffle_logic`]).
pub use reshuffle_logic as logic;

/// State graphs and coding analyses ([`reshuffle_sg`]).
pub use reshuffle_sg as sg;

/// Logic synthesis back-end ([`reshuffle_synth`]).
pub use reshuffle_synth as synth;

/// Timed simulation and cycle analysis ([`reshuffle_timing`]).
pub use reshuffle_timing as timing;

/// Handshake expansion of partial specifications ([`reshuffle_handshake`]).
pub use reshuffle_handshake as handshake;

/// Concurrency reduction ([`reshuffle_reduce`]).
pub use reshuffle_reduce as reduce;

/// Spans, histograms, Prometheus exposition and JSON ([`reshuffle_obs`]).
pub use reshuffle_obs as obs;

pub use reshuffle_handshake::{ExpansionOptions, HandshakeError, Reshuffling};
pub use reshuffle_petri::{canonical_fingerprint, parse_g, PetriError, Stg};
pub use reshuffle_reduce::{MoveStep, ReduceError, ReduceOptions};
pub use reshuffle_sg::{build_state_graph, SgError, StateGraph};
pub use reshuffle_synth::{CscOptions, Library, Netlist, SynthError};
pub use reshuffle_timing::{simulate, DelayModel, SimOptions, TimingError};

pub use cache::SynthCache;
pub use diag::{Diagnostics, Stage, StageReport};
pub use pipeline::{
    run_cache_key, source_cache_key, Expanded, Parsed, Pipeline, Reduced, Resolved, Synthesized,
};
pub use store::{CacheStore, FileStore, MemStore, Recovery};

/// Errors from the end-to-end pipeline, tagged by the failing stage.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The `.g` source failed to parse or violated the token game.
    Parse(PetriError),
    /// Handshake expansion failed, or a partial specification reached
    /// the pipeline without the expansion stage enabled.
    Expand(HandshakeError),
    /// State-graph construction failed (inconsistent coding, budget, …).
    StateGraph(SgError),
    /// The specification is not speed-independent (determinism,
    /// commutativity, or output persistency is violated).
    NotSpeedIndependent {
        /// Total number of violation witnesses found.
        violations: usize,
    },
    /// The opt-in concurrency-reduction stage failed (e.g. the
    /// cycle-time bound excluded every reduction).
    Reduce(ReduceError),
    /// Logic synthesis or CSC resolution failed.
    Synth(SynthError),
    /// Timed analysis failed.
    Timing(TimingError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse: {e}"),
            PipelineError::Expand(e) => write!(f, "expansion: {e}"),
            PipelineError::StateGraph(e) => write!(f, "state graph: {e}"),
            PipelineError::NotSpeedIndependent { violations } => write!(
                f,
                "specification is not speed-independent ({violations} violations)"
            ),
            PipelineError::Reduce(e) => write!(f, "reduction: {e}"),
            PipelineError::Synth(e) => write!(f, "synthesis: {e}"),
            PipelineError::Timing(e) => write!(f, "timing: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Parse(e) => Some(e),
            PipelineError::Expand(e) => Some(e),
            PipelineError::StateGraph(e) => Some(e),
            PipelineError::NotSpeedIndependent { .. } => None,
            PipelineError::Reduce(e) => Some(e),
            PipelineError::Synth(e) => Some(e),
            PipelineError::Timing(e) => Some(e),
        }
    }
}

impl From<ReduceError> for PipelineError {
    fn from(e: ReduceError) -> Self {
        PipelineError::Reduce(e)
    }
}

impl From<HandshakeError> for PipelineError {
    fn from(e: HandshakeError) -> Self {
        PipelineError::Expand(e)
    }
}

impl From<PetriError> for PipelineError {
    fn from(e: PetriError) -> Self {
        PipelineError::Parse(e)
    }
}

impl From<SgError> for PipelineError {
    fn from(e: SgError) -> Self {
        PipelineError::StateGraph(e)
    }
}

impl From<SynthError> for PipelineError {
    fn from(e: SynthError) -> Self {
        PipelineError::Synth(e)
    }
}

impl From<TimingError> for PipelineError {
    fn from(e: TimingError) -> Self {
        PipelineError::Timing(e)
    }
}

/// Convenient result alias for the pipeline.
pub type Result<T> = std::result::Result<T, PipelineError>;

/// Implementation style for the synthesized logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ImplStyle {
    /// One atomic complex gate per signal (the paper's Fig. 3(d)).
    #[default]
    ComplexGate,
    /// Generalized C-element with set/reset networks (Fig. 3(c)).
    GeneralizedC,
}

/// The whole-run option record driving [`Parsed::run`]: a composition
/// of the per-stage option structs ([`ExpansionOptions`],
/// [`ReduceOptions`], [`CscOptions`]) plus the style and verification
/// switches, so the one-shot run, the staged chain, and the
/// `reshuffle-server` request schema share one option vocabulary.
///
/// Complete specifications are always structurally pre-reduced before
/// their state graph is built ([`petri::structural::prereduce`]):
/// duplicate/shortcut/self-loop place elimination and series-dummy
/// merging shrink the net without changing its behaviour. Partial
/// specifications are never touched.
///
/// The struct is `#[non_exhaustive]`: build it with
/// [`PipelineOptions::new`] (or `default()`) and the `with_*` setters,
/// which keeps adding a stage a non-breaking change.
///
/// ```
/// use reshuffle::{ExpansionOptions, PipelineOptions, ReduceOptions};
///
/// let opts = PipelineOptions::new()
///     .with_expand(ExpansionOptions::default())
///     .with_reduce(ReduceOptions::default());
/// assert!(opts.expand.is_some() && opts.reduce.is_some());
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PipelineOptions {
    /// Implementation style (complex gate by default).
    pub style: ImplStyle,
    /// Cap on explored states per state-graph build
    /// ([`petri::DEFAULT_STATE_BUDGET`] by default). Not part of the
    /// cache key: it bounds work, it does not change the artifact.
    pub state_budget: usize,
    /// Opt-in handshake-expansion stage (Section 3) for *partial*
    /// specifications: enumerate the reshuffling lattice, synthesize
    /// every surviving candidate (composing with the `reduce` stage if
    /// enabled) and keep the best by (state signals inserted, literal
    /// estimate, timed cycle). `None` (the default) rejects partial
    /// specifications with [`PipelineError::Expand`]; complete
    /// specifications pass through the stage untouched.
    pub expand: Option<ExpansionOptions>,
    /// Opt-in concurrency-reduction stage (Section 4), run *before* CSC
    /// resolution so reductions that dissolve conflicts are preferred
    /// over state-signal insertion. `None` (the default) skips it.
    pub reduce: Option<ReduceOptions>,
    /// CSC-resolution search parameters.
    pub csc: CscOptions,
    /// Skip the final implementation-vs-specification check.
    pub skip_verify: bool,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            style: ImplStyle::default(),
            state_budget: petri::DEFAULT_STATE_BUDGET,
            expand: None,
            reduce: None,
            csc: CscOptions::default(),
            skip_verify: false,
        }
    }
}

impl PipelineOptions {
    /// The default pipeline: no expansion, no reduction, default CSC
    /// search, complex-gate style, verification on.
    pub fn new() -> PipelineOptions {
        PipelineOptions::default()
    }

    /// Replaces the per-build explored-state cap.
    pub fn with_state_budget(mut self, budget: usize) -> PipelineOptions {
        self.state_budget = budget;
        self
    }

    /// Selects the implementation style.
    pub fn with_style(mut self, style: ImplStyle) -> PipelineOptions {
        self.style = style;
        self
    }

    /// Enables the handshake-expansion stage with `opts`.
    pub fn with_expand(mut self, opts: ExpansionOptions) -> PipelineOptions {
        self.expand = Some(opts);
        self
    }

    /// Enables the concurrency-reduction stage with `opts`.
    pub fn with_reduce(mut self, opts: ReduceOptions) -> PipelineOptions {
        self.reduce = Some(opts);
        self
    }

    /// Replaces the CSC-resolution search parameters.
    pub fn with_csc(mut self, opts: CscOptions) -> PipelineOptions {
        self.csc = opts;
        self
    }

    /// Skips (or re-enables) the final verification check.
    pub fn with_skip_verify(mut self, skip: bool) -> PipelineOptions {
        self.skip_verify = skip;
        self
    }
}

/// Everything the pipeline produced, for callers that want more than
/// the netlist.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The STG actually synthesized (after any CSC insertions).
    pub stg: Stg,
    /// Its state graph.
    pub sg: StateGraph,
    /// The mapped implementation.
    pub netlist: Netlist,
    /// Names of state signals inserted to resolve CSC.
    pub inserted: Vec<String>,
    /// Serializing moves applied by the concurrency-reduction stage, in
    /// order, each carrying its label and post-move statistics (empty
    /// when the stage was skipped or found nothing to improve).
    pub moves: Vec<MoveStep>,
    /// Ordering choices of the winning reshuffling when the
    /// handshake-expansion stage ran on a partial specification
    /// (empty for the eager extreme, complete inputs, or when the
    /// stage was disabled).
    pub expansion: Vec<String>,
}

impl Synthesis {
    /// The labels of the applied serializing moves, in order.
    pub fn move_labels(&self) -> impl Iterator<Item = &str> {
        self.moves.iter().map(|m| m.label.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot builder run: parse, then every stage `opts` selects.
    fn run(src: &str, opts: &PipelineOptions) -> Result<Synthesis> {
        Pipeline::from_g(src)?
            .run(opts)
            .map(Synthesized::into_synthesis)
    }

    const TOGGLE_G: &str = "\
.model toggle
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";

    const XYZ_G: &str = "\
.model xyz
.inputs x
.outputs y z
.graph
x+ y+
y+ z+
z+ x-
x- y-
y- z-
z- x+
.marking { <z-,x+> }
.end
";

    const FIG1_G: &str = "\
.model fig1
.inputs Req
.outputs Ack
.graph
Ack+ Req-
Req- Req+ Ack-
Ack- Ack+
Req+ Ack+
.marking { <Req+,Ack+> <Ack-,Ack+> }
.end
";

    #[test]
    fn toggle_synthesizes_to_wire() {
        let netlist = run(TOGGLE_G, &PipelineOptions::default()).unwrap().netlist;
        let b = netlist.signal_by_name("b").unwrap();
        assert!(netlist.is_wire(b));
    }

    #[test]
    fn xyz_full_pipeline() {
        let s = run(XYZ_G, &PipelineOptions::default()).unwrap();
        assert_eq!(s.sg.num_states(), 6);
        assert!(s.inserted.is_empty());
        assert_eq!(s.netlist.signals().len(), 3);
    }

    #[test]
    fn gc_style_also_verifies() {
        let opts = PipelineOptions {
            style: ImplStyle::GeneralizedC,
            ..Default::default()
        };
        let s = run(XYZ_G, &opts).unwrap();
        assert_eq!(s.netlist.signals().len(), 3);
    }

    #[test]
    fn csc_conflict_is_resolved_or_reported() {
        // Fig. 1 violates CSC; the pipeline must either insert a state
        // signal and verify, or report the stalled resolution — never
        // silently synthesize conflicted logic.
        match run(FIG1_G, &PipelineOptions::default()) {
            Ok(s) => assert!(!s.inserted.is_empty()),
            Err(PipelineError::Synth(SynthError::CscResolutionFailed { .. })) => {}
            Err(e) => panic!("unexpected pipeline error: {e}"),
        }
    }

    /// Mirror of Fig. 1 (`Req` is the output): its CSC conflict cannot
    /// be fixed by state-signal insertion, only by serializing `Req+`
    /// after `Ack-`.
    const MFIG1_G: &str = "\
.model mfig1
.inputs Ack
.outputs Req
.graph
Ack+ Req-
Req- Req+ Ack-
Ack- Ack+
Req+ Ack+
.marking { <Req+,Ack+> <Ack-,Ack+> }
.end
";

    #[test]
    fn reduce_stage_rescues_insertion_stalls() {
        // Without reduction the pipeline stalls on mfig1 …
        let default_run = run(MFIG1_G, &PipelineOptions::default());
        assert!(matches!(
            default_run,
            Err(PipelineError::Synth(SynthError::CscResolutionFailed { .. }))
        ));
        // … with the opt-in stage it synthesizes with zero state signals.
        let opts = PipelineOptions {
            reduce: Some(ReduceOptions::default()),
            ..Default::default()
        };
        let s = run(MFIG1_G, &opts).unwrap();
        // The typed move list carries label and per-move statistics.
        assert_eq!(s.move_labels().collect::<Vec<_>>(), ["Ack- -> Req+"]);
        assert_eq!(s.moves.len(), 1);
        assert_eq!(s.moves[0].csc_conflicts, 0);
        assert!(s.inserted.is_empty());
        assert_eq!(s.sg.num_states(), 4);
    }

    #[test]
    fn reduce_stage_is_identity_on_sequential_specs() {
        let opts = PipelineOptions {
            reduce: Some(ReduceOptions::default()),
            ..Default::default()
        };
        let s = run(XYZ_G, &opts).unwrap();
        assert!(s.moves.is_empty());
        assert_eq!(s.sg.num_states(), 6);
    }

    #[test]
    fn reduce_stage_reports_infeasible_bounds() {
        let opts = PipelineOptions {
            reduce: Some(ReduceOptions {
                max_cycle_time: Some(0.5),
                ..Default::default()
            }),
            ..Default::default()
        };
        match run(XYZ_G, &opts) {
            Err(PipelineError::Reduce(ReduceError::NoFeasibleReduction)) => {}
            other => panic!("expected infeasible-reduction error, got {other:?}"),
        }
    }

    /// Partial request/acknowledge controller with a committed Go
    /// pulse: the channel's return-to-zero edges are free to reshuffle
    /// around the pulse.
    const PCREQ_G: &str = "\
.model pcreq
.inputs Ack
.outputs Req Go
.handshake Req Ack
.graph
Req~ Ack~
Ack~ Go+
Go+ Go-
Go- Req~
.marking { <Go-,Req~> }
.end
";

    #[test]
    fn partial_specs_require_the_expand_stage() {
        match run(PCREQ_G, &PipelineOptions::default()) {
            Err(PipelineError::Expand(HandshakeError::NotExpanded)) => {}
            other => panic!("expected NotExpanded, got {other:?}"),
        }
    }

    #[test]
    fn expand_stage_selects_a_reshuffling() {
        let opts = PipelineOptions {
            expand: Some(ExpansionOptions::default()),
            ..Default::default()
        };
        let s = run(PCREQ_G, &opts).unwrap();
        // The winner serializes Req- behind Go+ and Ack- behind Go-:
        // one state signal and 6 literals, against the eager extreme's
        // two signals and 16 literals.
        assert_eq!(
            s.expansion,
            vec!["Go+ -> Req-".to_string(), "Go- -> Ack-".to_string()]
        );
        assert_eq!(s.inserted, vec!["csc0".to_string()]);
        assert!(!s.stg.is_partial());
        assert_eq!(s.netlist.signals().len(), 4);
    }

    #[test]
    fn expand_stage_is_identity_on_complete_specs() {
        let opts = PipelineOptions {
            expand: Some(ExpansionOptions::default()),
            ..Default::default()
        };
        let s = run(XYZ_G, &opts).unwrap();
        assert!(s.expansion.is_empty());
        assert_eq!(s.sg.num_states(), 6);
    }

    #[test]
    fn expand_stage_composes_with_reduce() {
        let opts = PipelineOptions {
            expand: Some(ExpansionOptions::default()),
            reduce: Some(ReduceOptions::default()),
            ..Default::default()
        };
        let s = run(PCREQ_G, &opts).unwrap();
        // With the reduce stage composed per candidate, serializing
        // moves dissolve every conflict: no state signal at all beats
        // the expansion-only winner.
        assert!(s.inserted.is_empty());
        assert!(!s.moves.is_empty());
        assert_eq!(s.netlist.signals().len(), 3);
    }

    #[test]
    fn non_speed_independent_spec_is_rejected() {
        // A choice place where input a+ disables output b+: output
        // persistency is violated, so the paper's flow must refuse it.
        let nsi = ".model nsi\n.inputs a\n.outputs b\n.graph\n\
             p0 a+ b+\na+ p1\nb+ p2\n.marking { p0 }\n.end\n";
        match run(nsi, &PipelineOptions::default()) {
            Err(PipelineError::NotSpeedIndependent { violations }) => assert!(violations > 0),
            other => panic!("expected SI rejection, got {other:?}"),
        }
    }

    #[test]
    fn a_dummy_in_choice_with_an_output_is_rejected() {
        // Dummy d withdraws the excited output b+ from choice place p:
        // the typed SI rejection, not a stalled CSC search later on.
        let dummy = ".model dummy_choice\n.inputs a\n.outputs b\n.dummy d\n.graph\n\
             a+ p\np b+ d\nb+ b-\nb- q\nd q\nq a-\na- a+\n\
             .marking { <a-,a+> }\n.end\n";
        match run(dummy, &PipelineOptions::default()) {
            Err(PipelineError::NotSpeedIndependent { violations: 1 }) => {}
            other => panic!("expected one SI violation, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_tagged() {
        match run(".model broken\n.end\n", &PipelineOptions::default()) {
            Err(PipelineError::Parse(_)) => {}
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    // --- builder-specific behaviour ---------------------------------

    #[test]
    fn staged_chain_exposes_artifacts_and_diagnostics() {
        let parsed = Pipeline::from_g(XYZ_G).unwrap();
        assert!(!parsed.is_partial());
        assert_eq!(parsed.stg().num_signals(), 3);
        assert!(parsed.diagnostics().stage(Stage::Parse).is_some());

        let expanded = parsed.complete().unwrap();
        assert_eq!(expanded.state_graph().num_states(), 6);
        assert_eq!(expanded.num_candidates(), 1);

        let reduced = expanded.reduce(&ReduceOptions::default()).unwrap();
        assert!(reduced.moves().is_empty());

        let resolved = reduced.resolve(&CscOptions::default()).unwrap();
        assert!(resolved.inserted().is_empty());
        assert_eq!(resolved.state_graph().num_states(), 6);

        let done = resolved.synthesize(ImplStyle::ComplexGate).unwrap();
        assert_eq!(done.netlist().signals().len(), 3);
        let diag = done.diagnostics();
        for stage in [
            Stage::Parse,
            Stage::Expand,
            Stage::Reduce,
            Stage::Resolve,
            Stage::Synthesize,
        ] {
            assert!(diag.stage(stage).is_some(), "missing report for {stage}");
        }
        assert_eq!(diag.stage(Stage::Expand).unwrap().states, Some(6));
        assert_eq!(diag.stage(Stage::Synthesize).unwrap().candidates, Some(1));
        assert!(!diag.summary().is_empty());
    }

    #[test]
    fn complete_rejects_partial_specs() {
        let parsed = Pipeline::from_g(PCREQ_G).unwrap();
        assert!(parsed.is_partial());
        match parsed.complete() {
            Err(PipelineError::Expand(HandshakeError::NotExpanded)) => {}
            other => panic!("expected NotExpanded, got {other:?}"),
        }
    }

    #[test]
    fn expanded_candidates_are_inspectable() {
        let expanded = Pipeline::from_g(PCREQ_G)
            .unwrap()
            .expand(&ExpansionOptions::default())
            .unwrap();
        assert!(expanded.num_candidates() >= 2);
        let diag_report = expanded.diagnostics().stage(Stage::Expand).unwrap();
        assert_eq!(diag_report.candidates, Some(expanded.num_candidates()));
        // Eager extreme first: no ordering commitments.
        let (stg, choices) = expanded.candidates().next().unwrap();
        assert!(choices.is_empty());
        assert!(!stg.is_partial());
    }

    #[test]
    fn second_run_is_served_from_the_cache() {
        let cache = SynthCache::new();
        let opts = PipelineOptions::default();
        let first = Pipeline::from_g(XYZ_G)
            .unwrap()
            .with_cache(&cache)
            .run(&opts)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!(first.diagnostics().cache_misses, 1);
        assert!(first.diagnostics().stage(Stage::Synthesize).is_some());

        let second = Pipeline::from_g(XYZ_G)
            .unwrap()
            .with_cache(&cache)
            .run(&opts)
            .unwrap();
        // Hit counter = 1, and no re-synthesis timing recorded: only
        // the parse stage ran.
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(second.diagnostics().cache_hits, 1);
        assert!(second.diagnostics().stage(Stage::Synthesize).is_none());
        assert!(second.diagnostics().stage(Stage::Expand).is_none());
        // The hit path is not invisible: its lookup latency is recorded
        // as the cache_hit pseudo-stage (the miss run records none).
        assert!(second.diagnostics().stage(Stage::CacheHit).is_some());
        assert!(first.diagnostics().stage(Stage::CacheHit).is_none());
        assert_eq!(
            first.netlist().describe(),
            second.netlist().describe(),
            "cached netlist drifted"
        );
    }

    #[test]
    fn traced_run_emits_stage_spans_under_one_trace_id() {
        use reshuffle_obs::{RingSink, Sink, SinkHandle, TraceId, Tracer};
        use std::sync::Arc;

        let ring = Arc::new(RingSink::new(256));
        let tracer = Tracer::new(true, SinkHandle::new(ring.clone() as Arc<dyn Sink>));
        let trace = TraceId::derive(0x5eed, 17);
        let traced = Pipeline::from_g(XYZ_G)
            .unwrap()
            .with_trace(tracer.root(trace))
            .run(&PipelineOptions::default())
            .unwrap();
        let plain = Pipeline::from_g(XYZ_G)
            .unwrap()
            .run(&PipelineOptions::default())
            .unwrap();
        assert_eq!(
            traced.netlist().describe(),
            plain.netlist().describe(),
            "tracing must not change the synthesis"
        );

        let lines = ring.lines();
        let hex = trace.to_string();
        assert!(!lines.is_empty());
        for line in &lines {
            assert!(line.contains(&format!("\"trace\":\"{hex}\"")), "{line}");
        }
        let has = |name: &str| {
            lines
                .iter()
                .any(|l| l.contains(&format!("\"name\":\"{name}\"")))
        };
        for name in [
            "stage.expand",
            "stage.resolve",
            "stage.synthesize",
            "bfs.markings",
            "bfs.encode",
            "sg.si_gate",
            "synth.derive",
            "synth.verify",
        ] {
            assert!(has(name), "missing span {name} in {lines:#?}");
        }
        // The lone candidate's derivation and check are children of the
        // synthesize stage.
        let field = |name: &str, key: &str| -> f64 {
            let line = lines
                .iter()
                .find(|l| l.contains(&format!("\"name\":\"{name}\"")))
                .unwrap();
            let span = reshuffle_obs::json::parse(line).unwrap();
            span.get(key)
                .and_then(reshuffle_obs::json::Json::as_num)
                .unwrap()
        };
        let stage = field("stage.synthesize", "span");
        assert_eq!(field("synth.derive", "parent"), stage);
        assert_eq!(field("synth.verify", "parent"), stage);
        // The complete spec's gate sits next to the build's spans under
        // the expand stage, and reports what it checked.
        let expand = field("stage.expand", "span");
        assert_eq!(field("sg.si_gate", "parent"), expand);
        assert_eq!(field("bfs.markings", "parent"), expand);
        assert_eq!(
            field("sg.si_gate", "states"),
            field("stage.expand", "states")
        );
        assert_eq!(field("sg.si_gate", "violations"), 0.0);

        // A cache hit under tracing emits the lookup span.
        let cache = SynthCache::new();
        let _ = Pipeline::from_g(XYZ_G)
            .unwrap()
            .with_cache(&cache)
            .run(&PipelineOptions::default())
            .unwrap();
        let before = ring.lines().len();
        let hit = Pipeline::from_g(XYZ_G)
            .unwrap()
            .with_cache(&cache)
            .with_trace(tracer.root(TraceId::derive(0x5eed, 18)))
            .run(&PipelineOptions::default())
            .unwrap();
        assert_eq!(hit.diagnostics().cache_hits, 1);
        let lines = ring.lines();
        assert!(lines.len() > before);
        assert!(
            lines
                .iter()
                .any(|l| l.contains("\"name\":\"cache.lookup\"") && l.contains("\"hit\":1")),
            "{lines:#?}"
        );

        // The resolve span reports the full state-graph builds the CSC
        // search ran next to the candidates it tried. pcreq's expanded
        // parents have no toggle edges, so every candidate graph is
        // derived and none is built in full.
        let ring = Arc::new(RingSink::new(4096));
        let tracer = Tracer::new(true, SinkHandle::new(ring.clone() as Arc<dyn Sink>));
        let opts = PipelineOptions::new().with_expand(ExpansionOptions::default());
        Pipeline::from_g(PCREQ_G)
            .unwrap()
            .with_trace(tracer.root(TraceId::derive(0x5eed, 19)))
            .run(&opts)
            .unwrap();
        let resolve = ring
            .lines()
            .into_iter()
            .find(|l| l.contains("\"name\":\"stage.resolve\""))
            .expect("resolve span");
        assert!(resolve.contains("\"tried\":"), "{resolve}");
        assert!(resolve.contains("\"rebuilt\":0"), "{resolve}");

        // The reduce, resolve and synthesize spans report the stage's
        // cover-memo hits and misses.
        let ring = Arc::new(RingSink::new(4096));
        let tracer = Tracer::new(true, SinkHandle::new(ring.clone() as Arc<dyn Sink>));
        let opts = opts.with_reduce(ReduceOptions::default());
        Pipeline::from_g(PCREQ_G)
            .unwrap()
            .with_trace(tracer.root(TraceId::derive(0x5eed, 20)))
            .run(&opts)
            .unwrap();
        let lines = ring.lines();
        for name in ["stage.reduce", "stage.resolve", "stage.synthesize"] {
            let span = lines
                .iter()
                .find(|l| l.contains(&format!("\"name\":\"{name}\"")))
                .unwrap_or_else(|| panic!("no {name} span in {lines:#?}"));
            for key in ["memo_hits", "memo_misses"] {
                assert!(span.contains(&format!("\"{key}\":")), "{span}");
            }
        }

        // A lone scaled_pipeline(3): r1, r2 and r3 all follow go and
        // share one minimization, and done has its own.
        let ring = Arc::new(RingSink::new(256));
        let tracer = Tracer::new(true, SinkHandle::new(ring.clone() as Arc<dyn Sink>));
        Pipeline::from_g(SCALED3_G)
            .unwrap()
            .with_trace(tracer.root(TraceId::derive(0x5eed, 21)))
            .run(&PipelineOptions::default())
            .unwrap();
        let synthesize = ring
            .lines()
            .into_iter()
            .find(|l| l.contains("\"name\":\"stage.synthesize\""))
            .expect("synthesize span");
        assert!(synthesize.contains("\"memo_hits\":2"), "{synthesize}");
        assert!(synthesize.contains("\"memo_misses\":2"), "{synthesize}");
    }

    /// `scaled_pipeline(3)` of the bench crate's examples: `go` forks
    /// three request/acknowledge branches that `done` joins.
    const SCALED3_G: &str = "\
.model scaled3
.inputs go a1 a2 a3
.outputs done r1 r2 r3
.graph
go+ r1+
r1+ a1+
a1+ done+
go+ r2+
r2+ a2+
a2+ done+
go+ r3+
r3+ a3+
a3+ done+
done+ go-
go- r1-
r1- a1-
a1- done-
go- r2-
r2- a2-
a2- done-
go- r3-
r3- a3-
a3- done-
done- go+
.marking { <done-,go+> }
.end
";

    #[test]
    fn cache_distinguishes_options_and_specs() {
        let cache = SynthCache::new();
        let base = PipelineOptions::default();
        let gc = PipelineOptions {
            style: ImplStyle::GeneralizedC,
            ..Default::default()
        };
        for opts in [&base, &gc] {
            Pipeline::from_g(XYZ_G)
                .unwrap()
                .with_cache(&cache)
                .run(opts)
                .unwrap();
        }
        Pipeline::from_g(TOGGLE_G)
            .unwrap()
            .with_cache(&cache)
            .run(&base)
            .unwrap();
        // Three distinct keys, no false hits.
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
        assert_eq!(cache.len(), 3);
        // Same spec parsed from equivalent text still hits.
        let reparsed = petri::write_g(&parse_g(XYZ_G).unwrap());
        Pipeline::from_g(&reparsed)
            .unwrap()
            .with_cache(&cache)
            .run(&base)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
    }

    #[test]
    fn expansion_candidates_share_the_cache() {
        // A lattice sibling synthesized standalone seeds the cache; the
        // partial-spec selection run then reuses it per candidate
        // instead of re-deriving from scratch — and stores the
        // remaining candidates for future runs.
        let cache = SynthCache::new();
        let spec = parse_g(PCREQ_G).unwrap();
        let cands = handshake::expand_handshakes(&spec, &ExpansionOptions::default()).unwrap();
        let standalone = Pipeline::from_parts(cands[0].stg.clone(), cands[0].sg.clone())
            .with_cache(&cache)
            .run(&PipelineOptions::default())
            .unwrap();
        assert_eq!(cache.shared_hits(), 0);
        let entries_before = cache.len();

        let opts = PipelineOptions {
            expand: Some(ExpansionOptions::default()),
            ..Default::default()
        };
        let done = Pipeline::from_g(PCREQ_G)
            .unwrap()
            .with_cache(&cache)
            .run(&opts)
            .unwrap();
        assert!(cache.shared_hits() >= 1, "eager sibling was not shared");
        assert_eq!(
            done.diagnostics().shared_candidate_hits,
            cache.shared_hits(),
            "per-run counter drifted from the cache's total"
        );
        assert!(
            cache.len() > entries_before,
            "surviving candidates were not stored for future sharing"
        );
        // Sharing must not change the outcome: same winner as an
        // uncached selection run.
        let uncached = run(PCREQ_G, &opts).unwrap();
        assert_eq!(
            done.synthesis().netlist.describe(),
            uncached.netlist.describe()
        );
        assert_eq!(done.synthesis().expansion, uncached.expansion);
        // The candidate-level entry round-trips as a standalone run:
        // running the eager extreme again is a whole-run cache hit.
        let again = Pipeline::from_parts(cands[0].stg.clone(), cands[0].sg.clone())
            .with_cache(&cache)
            .run(&PipelineOptions::default())
            .unwrap();
        assert_eq!(again.diagnostics().cache_hits, 1);
        assert_eq!(standalone.netlist().describe(), again.netlist().describe());
        assert!(again.synthesis().expansion.is_empty());
    }

    #[test]
    fn staged_chain_hits_the_cache_a_run_filled() {
        // The staged chain accumulates the same key run() precomputes.
        let cache = SynthCache::new();
        let opts = PipelineOptions {
            reduce: Some(ReduceOptions::default()),
            ..Default::default()
        };
        Pipeline::from_g(MFIG1_G)
            .unwrap()
            .with_cache(&cache)
            .run(&opts)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let done = Pipeline::from_g(MFIG1_G)
            .unwrap()
            .with_cache(&cache)
            .complete()
            .unwrap()
            .reduce(&ReduceOptions::default())
            .unwrap()
            .resolve(&CscOptions::default())
            .unwrap()
            .synthesize(ImplStyle::ComplexGate)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(done.diagnostics().cache_hits, 1);
        assert_eq!(
            done.synthesis().move_labels().collect::<Vec<_>>(),
            ["Ack- -> Req+"]
        );
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = SynthCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        let base = PipelineOptions::default();
        let run = |src: &str, opts: &PipelineOptions| {
            Pipeline::from_g(src)
                .unwrap()
                .with_cache(&cache)
                .run(opts)
                .unwrap();
        };
        // Three distinct keys into a 2-entry cache: the coldest goes.
        run(TOGGLE_G, &base);
        run(XYZ_G, &base);
        run(TOGGLE_G, &base); // refresh toggle: xyz is now coldest
        run(MFIG1_G, &base.clone().with_reduce(ReduceOptions::default()));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // toggle survived its refresh; xyz was the victim.
        run(TOGGLE_G, &base);
        assert_eq!(cache.evictions(), 1, "refreshed entry was evicted");
        run(XYZ_G, &base);
        assert_eq!(cache.evictions(), 2, "evicted entry still resident");
        // Tightening the bound evicts immediately.
        cache.set_capacity(Some(1));
        assert_eq!((cache.len(), cache.evictions()), (1, 3));
    }

    #[test]
    fn cache_persists_across_a_store_round_trip() {
        use std::sync::Arc;

        let store = Arc::new(MemStore::new());
        let opts = PipelineOptions::default();
        let cache = SynthCache::new();
        cache.attach_journal(store.clone());
        let first = Pipeline::from_g(XYZ_G)
            .unwrap()
            .with_cache(&cache)
            .run(&opts)
            .unwrap();
        run_cached(TOGGLE_G, &cache);

        // A fresh handle recovered from the store hits on the same key;
        // its lifetime counters start over.
        let reloaded = SynthCache::recover(&*store).unwrap().cache;
        assert_eq!(reloaded.len(), 2);
        assert_eq!((reloaded.hits(), reloaded.misses()), (0, 0));
        let replay = Pipeline::from_g(XYZ_G)
            .unwrap()
            .with_cache(&reloaded)
            .run(&opts)
            .unwrap();
        assert_eq!(replay.diagnostics().cache_hits, 1);
        assert_eq!(
            first.netlist().describe(),
            replay.netlist().describe(),
            "reloaded synthesis drifted"
        );
        // Compact → recover → compact is byte-identical.
        let compacted = MemStore::new();
        reloaded.compact_to(&compacted).unwrap();
        let bytes = compacted.read_journal().unwrap().unwrap();
        let again = MemStore::new();
        SynthCache::recover(&compacted)
            .unwrap()
            .cache
            .compact_to(&again)
            .unwrap();
        assert_eq!(
            again.read_journal().unwrap().unwrap(),
            bytes,
            "compaction round-trip not byte-identical"
        );
        // An empty store recovers as an empty cache.
        assert!(SynthCache::recover(&MemStore::new())
            .unwrap()
            .cache
            .is_empty());
    }

    /// One default-options run of `src` through `cache`.
    fn run_cached(src: &str, cache: &SynthCache) {
        Pipeline::from_g(src)
            .unwrap()
            .with_cache(cache)
            .run(&PipelineOptions::default())
            .unwrap();
    }

    #[test]
    fn journal_replay_recovers_a_crashed_cache() {
        use std::sync::Arc;

        let store = Arc::new(MemStore::new());
        let opts = PipelineOptions::default();
        let cache = SynthCache::new();
        cache.attach_journal(store.clone());

        // Two real executions, each journaled durably at insert time.
        let first = Pipeline::from_g(XYZ_G)
            .unwrap()
            .with_cache(&cache)
            .run(&opts)
            .unwrap();
        run_cached(TOGGLE_G, &cache);
        assert_eq!(cache.journal_appends(), 2);
        assert_eq!(cache.journal_errors(), 0);
        // Simulated kill -9: the cache handle is dropped without ever
        // compacting. The appended records alone must carry both runs.
        drop(cache);

        let recovery = SynthCache::recover(&*store).unwrap();
        assert_eq!(recovery.journal_entries, 2);
        assert_eq!(recovery.torn_bytes, 0);
        let recovered = recovery.cache;
        assert_eq!(recovered.len(), 2);
        let replay = Pipeline::from_g(XYZ_G)
            .unwrap()
            .with_cache(&recovered)
            .run(&opts)
            .unwrap();
        assert_eq!(replay.diagnostics().cache_hits, 1, "replay re-executed");
        assert_eq!(
            first.netlist().describe(),
            replay.netlist().describe(),
            "journaled synthesis drifted"
        );

        // Compaction rewrites the journal as one record per entry.
        recovered.compact_to(&*store).unwrap();
        let recompacted = SynthCache::recover(&*store).unwrap();
        assert_eq!(recompacted.journal_entries, 2);
        assert_eq!(recompacted.cache.len(), 2);
    }

    #[test]
    fn replay_is_idempotent_across_the_compaction_crash_window() {
        use std::sync::Arc;

        // A compaction that fails before its rename leaves the old
        // journal whole, so recovery replays every entry; a retried
        // compaction rewrites them.
        let path = std::env::temp_dir().join(format!(
            "reshuffle-core-compact-{}.cache",
            std::process::id()
        ));
        let tmp = std::path::PathBuf::from(format!("{}.tmp", path.display()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&tmp);
        let store = Arc::new(FileStore::new(&path));
        let cache = SynthCache::new();
        cache.attach_journal(store.clone());
        run_cached(XYZ_G, &cache);
        run_cached(TOGGLE_G, &cache);
        let before = std::fs::read(&path).unwrap();
        // A directory where the rewrite wants its temporary file stops
        // the rewrite before it renames anything.
        std::fs::create_dir(&tmp).unwrap();
        assert!(cache.compact_to(&*store).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before, "journal torn");
        assert_eq!(SynthCache::recover(&*store).unwrap().cache.len(), 2);
        std::fs::remove_dir(&tmp).unwrap();
        cache.compact_to(&*store).unwrap();
        assert!(!tmp.exists(), "the rewrite left its temporary file");
        let recovery = SynthCache::recover(&*store).unwrap();
        assert_eq!((recovery.journal_entries, recovery.cache.len()), (2, 2));
        // Replaying the same records twice changes nothing.
        store.append(&std::fs::read(&path).unwrap()).unwrap();
        let doubled = SynthCache::recover(&*store).unwrap();
        assert_eq!((doubled.journal_entries, doubled.cache.len()), (4, 2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn two_records_of_one_key_recover_as_the_last() {
        use std::sync::Arc;

        let opts = PipelineOptions::default();
        let (xyz, toggle) = (run(XYZ_G, &opts).unwrap(), run(TOGGLE_G, &opts).unwrap());
        let store = Arc::new(MemStore::new());
        let cache = SynthCache::new();
        cache.attach_journal(store.clone());
        cache.insert(7, xyz);
        cache.insert(7, toggle.clone());
        let recovery = SynthCache::recover(&*store).unwrap();
        assert_eq!((recovery.journal_entries, recovery.cache.len()), (2, 1));
        let last = recovery.cache.lookup(7).expect("key 7 recovered");
        assert_eq!(last.netlist.describe(), toggle.netlist.describe());
        // Compaction keeps the last record alone.
        recovery.cache.compact_to(&*store).unwrap();
        assert_eq!(SynthCache::recover(&*store).unwrap().journal_entries, 1);
    }

    /// An insert, started on another thread, that signals when it is
    /// done.
    type Racer = (Box<dyn FnOnce() + Send>, std::sync::mpsc::Receiver<()>);

    /// A journal whose first rewrite starts its racer and waits for the
    /// insert to finish (or 100 ms, if the compaction locks it out)
    /// before replacing the journal.
    #[derive(Default)]
    struct RacingStore {
        journal: MemStore,
        racer: std::sync::Mutex<Option<Racer>>,
        raced: std::sync::Mutex<Option<std::thread::JoinHandle<()>>>,
    }

    impl CacheStore for RacingStore {
        fn append(&self, record: &[u8]) -> std::io::Result<()> {
            self.journal.append(record)
        }

        fn read_journal(&self) -> std::io::Result<Option<Vec<u8>>> {
            self.journal.read_journal()
        }

        fn replace_journal(&self, bytes: &[u8]) -> std::io::Result<()> {
            if let Some((insert, inserted)) = self.racer.lock().unwrap().take() {
                *self.raced.lock().unwrap() = Some(std::thread::spawn(insert));
                let _ = inserted.recv_timeout(std::time::Duration::from_millis(100));
            }
            self.journal.replace_journal(bytes)
        }
    }

    #[test]
    fn an_insert_racing_a_compaction_survives_recovery() {
        use std::sync::Arc;

        let opts = PipelineOptions::default();
        let (xyz, toggle) = (run(XYZ_G, &opts).unwrap(), run(TOGGLE_G, &opts).unwrap());
        let store = Arc::new(RacingStore::default());
        let cache = SynthCache::new();
        cache.attach_journal(store.clone());
        cache.insert(1, xyz);
        let (racing, (done, inserted)) = (cache.clone(), std::sync::mpsc::channel());
        let insert = move || {
            racing.insert(2, toggle);
            let _ = done.send(());
        };
        *store.racer.lock().unwrap() = Some((Box::new(insert), inserted));
        cache.compact_to(&*store).unwrap();
        let raced = store.raced.lock().unwrap().take().expect("racer started");
        raced.join().unwrap();
        let recovery = SynthCache::recover(&*store).unwrap();
        assert_eq!(recovery.cache.len(), 2, "the racing insert was lost");
    }

    #[test]
    fn torn_journal_tail_is_dropped_but_corruption_errors() {
        use std::sync::Arc;

        let store = Arc::new(MemStore::new());
        let cache = SynthCache::new();
        cache.attach_journal(store.clone());
        run_cached(XYZ_G, &cache);
        let record = store.read_journal().unwrap().unwrap();

        // One complete record followed by a torn tail (the partial
        // write a mid-append kill leaves): replayed and counted. A tail
        // that lacks one byte of its payload, or is one stray byte, is
        // torn too.
        for tail in [&record[..10], &record[..record.len() - 1], &[0u8][..]] {
            let torn = MemStore::new();
            torn.append(&record).unwrap();
            torn.append(tail).unwrap();
            let recovery = SynthCache::recover(&torn).unwrap();
            assert_eq!(recovery.journal_entries, 1);
            assert_eq!(recovery.torn_bytes, tail.len());
        }

        // A complete record whose payload or checksum was flipped is
        // corruption, not a torn tail: the checksum rejects it loudly.
        for at in [record.len() - 1, 12] {
            let corrupt = MemStore::new();
            let mut bytes = record.clone();
            bytes[at] ^= 0xFF;
            corrupt.append(&bytes).unwrap();
            let err = SynthCache::recover(&corrupt).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "byte {at}");
        }

        // So is a version-1 record (per-state markings), a version-2
        // one (no canonical numbering) and an unknown version.
        for version in [1u32, 2, 0xFF] {
            let old = MemStore::new();
            let mut bytes = record.clone();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            old.append(&bytes).unwrap();
            let err = SynthCache::recover(&old).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }

        // Foreign magic is rejected too.
        let foreign = MemStore::new();
        let mut bytes = record.clone();
        bytes[0] = b'X';
        foreign.append(&bytes).unwrap();
        let err = SynthCache::recover(&foreign).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn journal_append_failure_is_counted_not_fatal() {
        use std::sync::Arc;

        // A FileStore pointed into a directory that does not exist
        // cannot append; the insert must still succeed in memory, with
        // the failure surfaced on the error counter.
        let missing = std::env::temp_dir()
            .join(format!("reshuffle-no-such-dir-{}", std::process::id()))
            .join("cache");
        let store = FileStore::new(&missing);
        assert!(store.replace_journal(b"journal").is_err(), "error lost");
        let cache = SynthCache::new();
        cache.attach_journal(Arc::new(store));
        run_cached(XYZ_G, &cache);
        assert_eq!(cache.len(), 1, "insert must survive a journal failure");
        assert_eq!(cache.journal_appends(), 0);
        assert_eq!(cache.journal_errors(), 1);
    }

    #[test]
    fn file_store_journal_lifecycle() {
        let path = std::env::temp_dir().join(format!(
            "reshuffle-core-journal-{}.cache",
            std::process::id()
        ));
        let tmp = std::path::PathBuf::from(format!("{}.tmp", path.display()));
        let store = FileStore::new(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(store.journal_path(), path);
        assert!(store.read_journal().unwrap().is_none());
        store.append(b"abc").unwrap();
        store.append(b"def").unwrap();
        assert_eq!(store.read_journal().unwrap().unwrap(), b"abcdef");
        store.replace_journal(b"xy").unwrap();
        assert!(!tmp.exists(), "the rewrite left its temporary file");
        store.append(b"z").unwrap();
        assert_eq!(store.read_journal().unwrap().unwrap(), b"xyz");
        store.replace_journal(b"").unwrap();
        assert!(store.read_journal().unwrap().is_none(), "empty is None");
        std::fs::remove_file(&path).unwrap();
    }

    /// Replica of the cache-key option trail. `DefaultHasher` is not
    /// stable across Rust releases, so the pin replays the *sequence*
    /// (tags and canonical words, in stage order) rather than
    /// hard-coding hash values: if a refactor reorders the trail or
    /// drops a word, this fails while `BENCH_tables.json` keys and
    /// persisted caches silently move.
    #[test]
    fn option_trail_hash_is_pinned() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        fn replay_mix(seed: u64, tag: &str, parts: &[u64]) -> u64 {
            let mut h = DefaultHasher::new();
            seed.hash(&mut h);
            tag.hash(&mut h);
            parts.hash(&mut h);
            h.finish()
        }

        let spec = parse_g(XYZ_G).unwrap();
        let fp = canonical_fingerprint(&spec);

        // Default options: prereduce → complete → skip_reduce →
        // resolve → synthesize.
        let mut h = 0u64;
        h = replay_mix(h, "prereduce", &[1]);
        h = replay_mix(h, "complete", &[]);
        h = replay_mix(h, "skip_reduce", &[]);
        h = replay_mix(h, "resolve", &[4, 12]);
        h = replay_mix(h, "synthesize", &[0, 1]);
        assert_eq!(
            run_cache_key(&spec, &PipelineOptions::default()),
            replay_mix(fp, "key", &[h]),
            "default option trail drifted"
        );

        // Both opt-in stages enabled, with their default parameters.
        let full = PipelineOptions::new()
            .with_expand(ExpansionOptions::default())
            .with_reduce(ReduceOptions::default());
        let mut h = 0u64;
        h = replay_mix(h, "prereduce", &[1]);
        h = replay_mix(h, "expand", &[64]);
        h = replay_mix(
            h,
            "reduce",
            &[0, 0, 16, 128, 2.0f64.to_bits(), 1.0f64.to_bits()],
        );
        h = replay_mix(h, "resolve", &[4, 12]);
        h = replay_mix(h, "synthesize", &[0, 1]);
        assert_eq!(
            run_cache_key(&spec, &full),
            replay_mix(fp, "key", &[h]),
            "expand+reduce option trail drifted"
        );

        // Every switch lands in the key.
        let keys = [
            run_cache_key(&spec, &PipelineOptions::default()),
            run_cache_key(&spec, &full),
            run_cache_key(
                &spec,
                &PipelineOptions::new().with_style(ImplStyle::GeneralizedC),
            ),
            run_cache_key(&spec, &PipelineOptions::new().with_skip_verify(true)),
        ];
        // The state budget bounds work without changing the artifact,
        // so it must NOT move the key.
        assert_eq!(
            keys[0],
            run_cache_key(&spec, &PipelineOptions::new().with_state_budget(7)),
            "state budget leaked into the cache key"
        );
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "distinct options collided");
            }
        }
    }

    #[test]
    fn source_cache_key_agrees_with_run_cache_key() {
        let opts = PipelineOptions::new().with_style(ImplStyle::GeneralizedC);
        let spec = parse_g(XYZ_G).unwrap();
        assert_eq!(
            source_cache_key(XYZ_G, &opts).unwrap(),
            run_cache_key(&spec, &opts),
            "router-side key must match the pipeline-side key"
        );
        assert!(matches!(
            source_cache_key("not a spec", &opts),
            Err(PipelineError::Parse(_))
        ));
    }
}
