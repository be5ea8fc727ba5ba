//! The stage-typed pipeline builder.
//!
//! [`Pipeline::from_g`] / [`Pipeline::from_stg`] start a typestate
//! chain `Parsed -> Expanded -> Reduced -> Resolved -> Synthesized`:
//! each stage owns that point's artifacts for inspection, each
//! transition takes exactly that stage's options, and orderings the
//! paper's flow forbids (reducing or resolving a specification whose
//! handshake expansion decision has not been made) are not expressible
//! — `reduce` simply does not exist on [`Parsed`].
//!
//! For a *partial* specification, [`Parsed::expand`] enumerates the
//! reshuffling lattice and the chain carries every surviving candidate
//! forward; the ranked selection (state signals inserted, literal
//! estimate, timed cycle) happens in [`Resolved::synthesize`], exactly
//! as in the paper's flow, so a stage-by-stage chain and the
//! [`Parsed::run`] shortcut produce identical results.
//!
//! `Expanded`, `Reduced` and `Resolved` share one private chain (the
//! live candidates plus the run context); reduce and resolve run
//! through one stage step. Every cache key comes from the options the
//! transitions recorded, through one trail function, and a run
//! consults the cache once: [`Parsed::run`] before any stage, a chain
//! at [`Resolved::synthesize`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use reshuffle_handshake::{expand_handshakes_stats, ExpansionOptions, HandshakeError};
use reshuffle_obs::{FieldVal, SpanCtx};
use reshuffle_petri::{canonical_fingerprint, parse_g, prereduce, Stg, DEFAULT_STATE_BUDGET};
use reshuffle_reduce::{MoveStep, ReduceOptions};
use reshuffle_sg::csc::analyze_csc;
use reshuffle_sg::props::speed_independence;
use reshuffle_sg::{build_state_graph_stats, BuildOptions, StateGraph};
use reshuffle_synth::{
    literal_estimate_with, resolve_csc_with, synthesize_complex_gates_with, synthesize_gc,
    verify_against_sg, CoverMemo, CscOptions, Netlist,
};
use reshuffle_timing::{simulate, DelayModel, SimOptions};

use crate::cache::{mix, SynthCache};
use crate::diag::{Diagnostics, SgCounts, Stage};
use crate::{ImplStyle, PipelineError, PipelineOptions, Result, Synthesis};

/// Entry points of the stage-typed builder.
///
/// # Stop-at-state-graph inspection
///
/// Every stage exposes its artifact, so a caller can stop anywhere —
/// here after the state graph is built — and still continue the same
/// chain to a netlist:
///
/// ```
/// use reshuffle::{ImplStyle, Pipeline};
///
/// # fn main() -> Result<(), reshuffle::PipelineError> {
/// let src = ".model xyz\n.inputs x\n.outputs y z\n.graph\n\
///            x+ y+\ny+ z+\nz+ x-\nx- y-\ny- z-\nz- x+\n\
///            .marking { <z-,x+> }\n.end\n";
/// let expanded = Pipeline::from_g(src)?.complete()?;
/// assert_eq!(expanded.state_graph().num_states(), 6); // inspect ...
///
/// let done = expanded
///     .skip_reduce()
///     .resolve(&Default::default())?
///     .synthesize(ImplStyle::ComplexGate)?; // ... then keep going.
/// assert_eq!(done.netlist().signals().len(), 3);
/// assert!(done.diagnostics().total_wall().as_nanos() > 0);
/// # Ok(())
/// # }
/// ```
///
/// # Partial-specification expansion
///
/// A partial spec (open `.handshake` channel) must go through
/// [`Parsed::expand`]; the candidates ride the chain and the best one
/// is selected at [`Resolved::synthesize`]:
///
/// ```
/// use reshuffle::{ImplStyle, Pipeline};
///
/// # fn main() -> Result<(), reshuffle::PipelineError> {
/// let src = ".model pcreq\n.inputs Ack\n.outputs Req Go\n.handshake Req Ack\n\
///            .graph\nReq~ Ack~\nAck~ Go+\nGo+ Go-\nGo- Req~\n\
///            .marking { <Go-,Req~> }\n.end\n";
/// let expanded = Pipeline::from_g(src)?.expand(&Default::default())?;
/// assert!(expanded.num_candidates() >= 2); // the reshuffling lattice
///
/// let done = expanded
///     .skip_reduce()
///     .resolve(&Default::default())?
///     .synthesize(ImplStyle::ComplexGate)?;
/// // The ranked selection committed the winning reshuffling.
/// assert_eq!(
///     done.synthesis().expansion,
///     ["Go+ -> Req-".to_string(), "Go- -> Ack-".to_string()],
/// );
/// # Ok(())
/// # }
/// ```
///
/// The one-call shortcut is [`Parsed::run`]; cache-backed runs are in
/// the [`SynthCache`] docs.
#[non_exhaustive]
pub struct Pipeline;

impl Pipeline {
    /// Parses `.g` source text and starts a pipeline on it.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Parse`] when the source is malformed.
    pub fn from_g(g_source: &str) -> Result<Parsed> {
        let t = Instant::now();
        let stg = parse_g(g_source)?;
        let mut parsed = Pipeline::from_stg_owned(stg);
        parsed
            .ctx
            .diag
            .record(Stage::Parse, t.elapsed(), None, None, None);
        Ok(parsed)
    }

    /// Starts a pipeline on an already-parsed specification.
    pub fn from_stg(stg: &Stg) -> Parsed {
        Pipeline::from_stg_owned(stg.clone())
    }

    /// [`Pipeline::from_stg`] for callers that also pre-built the
    /// specification's state graph (`sg` must be the state graph of
    /// `stg`); the chain will not rebuild it.
    pub fn from_parts(stg: Stg, sg: StateGraph) -> Parsed {
        let mut parsed = Pipeline::from_stg_owned(stg);
        parsed.sg = Some(sg);
        parsed
    }

    fn from_stg_owned(stg: Stg) -> Parsed {
        let spec_fp = canonical_fingerprint(&stg);
        Parsed {
            stg,
            sg: None,
            ctx: Ctx {
                spec_fp,
                expand: None,
                reduce: None,
                csc: CscOptions::default(),
                selecting: false,
                state_budget: DEFAULT_STATE_BUDGET,
                looked_up: false,
                diag: Diagnostics::default(),
                cache: None,
                span: SpanCtx::default(),
                memo: CoverMemo::new(),
            },
        }
    }
}

/// State threaded through every stage of one pipeline.
#[derive(Debug)]
struct Ctx {
    /// Canonical fingerprint of the *input* specification.
    spec_fp: u64,
    /// Expansion options committed by [`Parsed::expand`] (`None` after
    /// [`Parsed::complete`]).
    expand: Option<ExpansionOptions>,
    /// Reduction options committed by [`Expanded::reduce`] (`None` when
    /// skipped); their delays also time the ranked selection.
    reduce: Option<ReduceOptions>,
    /// CSC options committed by [`Reduced::resolve`].
    csc: CscOptions,
    /// True when the expansion stage left several candidates pending
    /// the ranked selection. It gates the selection's timed cycle, its
    /// literal estimate and candidate sharing through the cache; the
    /// soft per-candidate failures come from [`enforce_live`].
    selecting: bool,
    /// Explored-state cap for state-graph builds the pipeline runs.
    state_budget: usize,
    /// True once [`Parsed::run`] consulted the cache under the
    /// whole-run key, so [`Resolved::synthesize`] does not again.
    looked_up: bool,
    diag: Diagnostics,
    /// Trace context: stage transitions emit `stage.*` spans under it
    /// and state-graph builds emit BFS child spans. Disabled by default.
    span: SpanCtx,
    cache: Option<SynthCache>,
    /// The run's minimized covers: reduce, resolve and synthesize
    /// minimize each distinct function once, on any thread.
    memo: CoverMemo,
}

impl Ctx {
    /// Consults the attached cache under the whole-run `key`, counting
    /// the hit or miss. A hit finishes the run: the hit path is not
    /// free, so its lookup latency is recorded as the
    /// [`Stage::CacheHit`] pseudo-stage instead of recording nothing.
    fn lookup(&mut self, key: u64) -> Option<Synthesized> {
        let cache = self.cache.as_ref()?;
        let sp = self.span.span("cache.lookup");
        let t = Instant::now();
        let hit = cache.lookup(key);
        if hit.is_some() {
            self.diag.cache_hits += 1;
            self.diag
                .record(Stage::CacheHit, t.elapsed(), None, None, None);
        } else {
            self.diag.cache_misses += 1;
        }
        sp.end(&[("hit", FieldVal::U64(hit.is_some() as u64))]);
        let synthesis = hit?;
        Some(Synthesized {
            synthesis,
            diag: std::mem::take(&mut self.diag),
        })
    }
}

/// One in-flight refinement of the specification.
#[derive(Debug)]
struct Candidate {
    stg: Stg,
    sg: StateGraph,
    /// Canonical fingerprint of the candidate as it entered the chain
    /// (post-expansion, pre-reduce) — half of its shared cache key.
    fp: u64,
    choices: Vec<String>,
    moves: Vec<MoveStep>,
    inserted: Vec<String>,
    /// CSC conflict count if a stage already established it.
    known_conflicts: Option<usize>,
}

type CandResult = Result<Candidate>;

/// The live candidates and the run context: what every stage past the
/// expansion decision holds.
#[derive(Debug)]
struct Chain {
    cands: Vec<CandResult>,
    ctx: Ctx,
}

impl Chain {
    fn primary(&self) -> &Candidate {
        self.cands
            .iter()
            .find_map(|c| c.as_ref().ok())
            .expect("stage invariant: at least one live candidate")
    }

    /// Size of the primary candidate's state graph.
    fn counts(&self) -> SgCounts {
        SgCounts::of(&self.primary().sg)
    }

    /// Runs one stage over every live candidate, each sharing the run's
    /// memo: `f` returns the refined candidate plus two counters, summed
    /// over candidates and reported under `fields` on the stage span,
    /// next to the stage's memo hits and misses. The first counter is
    /// the report's candidate count; reduce's second is its prune
    /// count, resolve's (graphs rebuilt) is a span field only.
    fn step<F>(
        mut self,
        stage: Stage,
        span: &'static str,
        fields: [&'static str; 2],
        f: F,
    ) -> Result<Chain>
    where
        F: Fn(Candidate, &CoverMemo) -> Result<(Candidate, usize, usize)> + Sync,
    {
        let t = Instant::now();
        let sp = self.ctx.span.span(span);
        let memo = &self.ctx.memo;
        let before = (memo.hits(), memo.misses());
        let outcomes = stage_map(self.cands, |c| f(c, memo));
        let memo_fields = memo_fields(memo, before);
        enforce_live(&outcomes)?;
        let (mut first, mut second) = (0usize, 0usize);
        self.cands = outcomes
            .into_iter()
            .map(|o| {
                o.map(|(c, a, b)| {
                    first += a;
                    second += b;
                    c
                })
            })
            .collect();
        let pruned = (stage == Stage::Reduce).then_some(second);
        let counts = self.counts();
        self.ctx
            .diag
            .record(stage, t.elapsed(), Some(counts), Some(first), pruned);
        sp.end(&[
            (fields[0], FieldVal::U64(first as u64)),
            (fields[1], FieldVal::U64(second as u64)),
            memo_fields[0],
            memo_fields[1],
        ]);
        Ok(self)
    }
}

/// A stage's memo hits and misses since `before` (the memo's hits and
/// misses when the stage began), as span fields.
fn memo_fields(memo: &CoverMemo, before: (u64, u64)) -> [(&'static str, FieldVal<'static>); 2] {
    [
        ("memo_hits", FieldVal::U64(memo.hits() - before.0)),
        ("memo_misses", FieldVal::U64(memo.misses() - before.1)),
    ]
}

/// Applies one stage's work to every live candidate, in parallel when
/// several are live (slots that already failed pass through untouched;
/// results keep their slot order, so the chain stays deterministic).
fn stage_map<T, F>(cands: Vec<CandResult>, f: F) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(Candidate) -> Result<T> + Sync,
{
    let live = cands.iter().filter(|c| c.is_ok()).count();
    if live <= 1 {
        return cands.into_iter().map(|c| c.and_then(&f)).collect();
    }
    let n = cands.len();
    let queue: Mutex<Vec<(usize, CandResult)>> =
        Mutex::new(cands.into_iter().enumerate().collect());
    let out: Vec<Mutex<Option<Result<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let workers = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1)
        .min(live);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some((i, c)) = queue.lock().unwrap().pop() else {
                    break;
                };
                *out[i].lock().unwrap() = Some(c.and_then(&f));
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().unwrap().expect("every slot computed"))
        .collect()
}

/// Enforces the per-stage failure policy: while candidates are pending
/// selection a failure is soft until *every* candidate has failed (the
/// first failure, in enumeration order, is then representative — the
/// same error the one-call pipeline reported); outside selection the
/// single candidate's failure is the stage's failure.
fn enforce_live<T>(cands: &[Result<T>]) -> Result<()> {
    match cands.iter().find_map(|c| c.as_ref().err()) {
        Some(first) if cands.iter().all(|c| c.is_err()) => Err(first.clone()),
        _ => Ok(()),
    }
}

/// Rejects specifications that are not speed-independent, reporting
/// the violation-witness count, under an `sg.si_gate` span.
fn gate_speed_independence(sg: &StateGraph, span: &SpanCtx) -> Result<()> {
    let gate = span.span("sg.si_gate");
    let si = speed_independence(sg);
    let violations = si.nondeterminism.len() + si.noncommutativity.len() + si.nonpersistency.len();
    gate.end(&[
        ("states", FieldVal::U64(sg.num_states() as u64)),
        ("violations", FieldVal::U64(violations as u64)),
    ]);
    if violations == 0 {
        Ok(())
    } else {
        Err(PipelineError::NotSpeedIndependent { violations })
    }
}

/// The option trail of a run: each stage's tag and option words, in
/// stage order (pre-reduction always runs, so its tag is constant). A
/// cache key is a fingerprint mixed with a trail; an expansion
/// candidate's trail has `expand: None`, as a standalone run of it has.
fn trail(
    expand: Option<&ExpansionOptions>,
    reduce: Option<&ReduceOptions>,
    csc: &CscOptions,
    style: ImplStyle,
    verify: bool,
) -> u64 {
    let h = mix(0, "prereduce", &[1]);
    let h = match expand {
        Some(e) => mix(h, "expand", &[e.max_reshufflings as u64]),
        None => mix(h, "complete", &[]),
    };
    let h = match reduce {
        Some(r) => mix(
            h,
            "reduce",
            &[
                r.max_cycle_time.is_some() as u64,
                r.max_cycle_time.unwrap_or(0.0).to_bits(),
                r.max_moves as u64,
                r.max_expansions as u64,
                r.input_delay.to_bits(),
                r.gate_delay.to_bits(),
            ],
        ),
        None => mix(h, "skip_reduce", &[]),
    };
    let h = mix(
        h,
        "resolve",
        &[csc.max_signals as u64, csc.rank_pool as u64],
    );
    let gc = style == ImplStyle::GeneralizedC;
    mix(h, "synthesize", &[gc as u64, verify as u64])
}

/// The [`SynthCache`](crate::SynthCache) key a [`Parsed::run`] of
/// `spec` under `opts` will look up and fill:
/// [`canonical_fingerprint`] of the spec mixed with the full option
/// trail. Callers that deduplicate work *before* starting a pipeline
/// (like the `reshuffle-server` single-flight registry) key their
/// in-flight table with this.
pub fn run_cache_key(spec: &Stg, opts: &PipelineOptions) -> u64 {
    let trail = trail(
        opts.expand.as_ref(),
        opts.reduce.as_ref(),
        &opts.csc,
        opts.style,
        !opts.skip_verify,
    );
    mix(canonical_fingerprint(spec), "key", &[trail])
}

/// [`run_cache_key`] computed straight from `.g` source, without
/// running any pipeline stage. Front tiers that route by content
/// (the `reshuffle-server` router computes `key % N` to pick a
/// backend shard) use this so the routing decision agrees exactly
/// with the cache key every backend will derive for the same spec and
/// options.
///
/// # Errors
///
/// [`PipelineError::Parse`] when the source is not a well-formed `.g`
/// specification.
pub fn source_cache_key(g: &str, opts: &PipelineOptions) -> Result<u64> {
    let spec = parse_g(g).map_err(PipelineError::Parse)?;
    Ok(run_cache_key(&spec, opts))
}

// --- Parsed ----------------------------------------------------------

/// A parsed specification: the start of the stage chain.
#[derive(Debug)]
pub struct Parsed {
    stg: Stg,
    sg: Option<StateGraph>,
    ctx: Ctx,
}

impl Parsed {
    /// The parsed specification.
    pub fn stg(&self) -> &Stg {
        &self.stg
    }

    /// True when the specification is partial (open `.handshake`
    /// channels or toggle events) and must go through [`Parsed::expand`].
    pub fn is_partial(&self) -> bool {
        self.stg.is_partial()
    }

    /// Diagnostics recorded so far (parse wall time).
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.ctx.diag
    }

    /// Attaches a synthesis cache: [`Parsed::run`] will serve repeated
    /// identical runs from it, and a manual chain will consult it at
    /// [`Resolved::synthesize`].
    pub fn with_cache(mut self, cache: &SynthCache) -> Parsed {
        self.ctx.cache = Some(cache.clone());
        self
    }

    /// Attaches a trace context: every subsequent stage transition
    /// emits a `stage.*` span under it, state-graph builds emit
    /// `bfs.markings`/`bfs.encode` child spans, a complete
    /// specification's speed-independence check an `sg.si_gate` child
    /// span (with `states` and `violations`), the synthesize stage
    /// emits a `synth.derive` and a `synth.verify` child span per
    /// candidate it synthesizes, and cache consultations emit
    /// `cache.lookup` spans. Tracing is observation only — it
    /// never changes what the pipeline produces.
    pub fn with_trace(mut self, span: SpanCtx) -> Parsed {
        self.ctx.span = span;
        self
    }

    /// Certifies the specification complete and enters the expansion
    /// stage as a no-op: the only way past this point without
    /// committing expansion options.
    ///
    /// # Errors
    ///
    /// * [`PipelineError::Expand`] ([`HandshakeError::NotExpanded`])
    ///   when the specification is in fact partial;
    /// * [`PipelineError::StateGraph`] when it has no state graph;
    /// * [`PipelineError::NotSpeedIndependent`] when it violates speed
    ///   independence.
    pub fn complete(mut self) -> Result<Expanded> {
        let t = Instant::now();
        let sp = self.ctx.span.span("stage.expand");
        if self.stg.is_partial() {
            return Err(PipelineError::Expand(HandshakeError::NotExpanded));
        }
        let (sg, counts) = match self.sg.take() {
            Some(sg) => {
                // A pre-built graph skips pre-reduction: its states
                // reference the caller's exact net.
                let counts = SgCounts::of(&sg);
                (sg, counts)
            }
            None => {
                let stats = prereduce(&mut self.stg)?;
                self.ctx.diag.prereduce_places_removed += stats.places_removed as u64;
                self.ctx.diag.prereduce_transitions_removed += stats.transitions_removed as u64;
                let build_opts = BuildOptions {
                    state_budget: self.ctx.state_budget,
                    ..Default::default()
                };
                let (sg, stats) =
                    build_state_graph_stats(&self.stg, &build_opts.with_span(sp.ctx()))?;
                (sg, SgCounts::of_build(&stats))
            }
        };
        gate_speed_independence(&sg, &sp.ctx())?;
        self.ctx
            .diag
            .record(Stage::Expand, t.elapsed(), Some(counts), Some(1), Some(0));
        sp.end(&[
            ("states", FieldVal::U64(counts.states.unwrap_or(0) as u64)),
            ("arcs", FieldVal::U64(counts.arcs.unwrap_or(0) as u64)),
        ]);
        let fp = self.ctx.spec_fp;
        Ok(Expanded(Chain {
            cands: vec![Ok(Candidate {
                stg: self.stg,
                sg,
                fp,
                choices: Vec::new(),
                moves: Vec::new(),
                inserted: Vec::new(),
                known_conflicts: None,
            })],
            ctx: self.ctx,
        }))
    }

    /// Runs the Section 3 handshake-expansion stage. For a partial
    /// specification this enumerates the reshuffling lattice and
    /// carries every surviving candidate forward (the ranked selection
    /// happens in [`Resolved::synthesize`]); a complete specification
    /// passes through untouched.
    ///
    /// # Errors
    ///
    /// * [`PipelineError::Expand`] when enumeration fails (malformed
    ///   channels, no feasible reshuffling);
    /// * the [`Parsed::complete`] errors for complete inputs.
    pub fn expand(mut self, opts: &ExpansionOptions) -> Result<Expanded> {
        self.ctx.expand = Some(opts.clone());
        if !self.stg.is_partial() {
            // Identity on complete specifications — the recorded
            // options still key the run.
            return self.complete();
        }
        let t = Instant::now();
        let sp = self.ctx.span.span("stage.expand");
        let expansion = expand_handshakes_stats(&self.stg, opts)?;
        let enumerated = expansion.reshufflings.len();
        let pruned = expansion.stats.pruned();
        self.ctx.diag.lattice_prefix_hits = expansion.stats.prefix_hits;
        // Lattice pruning keeps only speed-independent reshufflings.
        let cands: Vec<CandResult> = expansion
            .reshufflings
            .into_iter()
            .map(|r| {
                // The candidate's own canonical fingerprint keys its
                // shared cache slot — identical to a standalone run of
                // the same complete STG.
                let fp = canonical_fingerprint(&r.stg);
                Ok(Candidate {
                    stg: r.stg,
                    sg: r.sg,
                    fp,
                    choices: r.choices,
                    moves: Vec::new(),
                    inserted: Vec::new(),
                    known_conflicts: None,
                })
            })
            .collect();
        self.ctx.selecting = true;
        let mut chain = Chain {
            cands,
            ctx: self.ctx,
        };
        let counts = chain.counts();
        chain.ctx.diag.record(
            Stage::Expand,
            t.elapsed(),
            Some(counts),
            Some(enumerated),
            Some(pruned),
        );
        sp.end(&[
            ("candidates", FieldVal::U64(enumerated as u64)),
            ("pruned", FieldVal::U64(pruned as u64)),
        ]);
        Ok(Expanded(chain))
    }

    /// The one-call shortcut: runs the whole chain under a flat
    /// [`PipelineOptions`] — `expand` set routes through
    /// [`Parsed::expand`], `reduce` set through [`Expanded::reduce`],
    /// and an attached [`SynthCache`] is consulted *before* any stage
    /// runs (a hit records no stage timings).
    ///
    /// # Errors
    ///
    /// Any stage failure, tagged by [`PipelineError`] variant.
    pub fn run(mut self, opts: &PipelineOptions) -> Result<Synthesized> {
        self.ctx.state_budget = opts.state_budget;
        let trail = trail(
            opts.expand.as_ref(),
            opts.reduce.as_ref(),
            &opts.csc,
            opts.style,
            !opts.skip_verify,
        );
        if let Some(done) = self.ctx.lookup(mix(self.ctx.spec_fp, "key", &[trail])) {
            return Ok(done);
        }
        self.ctx.looked_up = true;
        let expanded = match &opts.expand {
            Some(eopts) => self.expand(eopts)?,
            None => self.complete()?,
        };
        let reduced = match &opts.reduce {
            Some(ropts) => expanded.reduce(ropts)?,
            None => expanded.skip_reduce(),
        };
        let resolved = reduced.resolve(&opts.csc)?;
        if opts.skip_verify {
            resolved.synthesize_unverified(opts.style)
        } else {
            resolved.synthesize(opts.style)
        }
    }
}

// --- Expanded --------------------------------------------------------

/// Past the expansion decision: one complete specification, or — for
/// partial inputs — the surviving reshuffling candidates.
#[derive(Debug)]
pub struct Expanded(Chain);

impl Expanded {
    /// The (primary candidate's) complete STG. For a partial input this
    /// is the first surviving reshuffling — the eager extreme unless it
    /// was pruned.
    pub fn stg(&self) -> &Stg {
        &self.0.primary().stg
    }

    /// The (primary candidate's) state graph.
    pub fn state_graph(&self) -> &StateGraph {
        &self.0.primary().sg
    }

    /// Number of candidates still in the running.
    pub fn num_candidates(&self) -> usize {
        self.0.cands.iter().filter(|c| c.is_ok()).count()
    }

    /// The live candidates: each one's complete STG and the ordering
    /// choices that produced it (empty for the eager extreme and for
    /// complete inputs).
    pub fn candidates(&self) -> impl Iterator<Item = (&Stg, &[String])> {
        self.0
            .cands
            .iter()
            .filter_map(|c| c.as_ref().ok())
            .map(|c| (&c.stg, c.choices.as_slice()))
    }

    /// Diagnostics recorded so far.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.0.ctx.diag
    }

    /// Skips the opt-in concurrency-reduction stage.
    pub fn skip_reduce(self) -> Reduced {
        Reduced(self.0)
    }

    /// Runs the Section 4 concurrency-reduction stage on every live
    /// candidate (before CSC resolution, so serializations that
    /// dissolve conflicts are preferred over state-signal insertion).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Reduce`] when the search fails — e.g. the
    /// cycle-time bound excludes every reduction (soft per candidate
    /// while a selection is pending) — or when a delay in `opts` is off
    /// the half-unit grid.
    pub fn reduce(self, opts: &ReduceOptions) -> Result<Reduced> {
        let mut chain = self.0;
        chain.ctx.reduce = Some(opts.clone());
        chain
            .step(
                Stage::Reduce,
                "stage.reduce",
                ["scored", "pruned"],
                |c, memo| {
                    let r = reshuffle_reduce::reduce_concurrency_with(&c.stg, c.sg, opts, memo)
                        .map_err(PipelineError::Reduce)?;
                    let reduced = Candidate {
                        stg: r.stg,
                        sg: r.sg,
                        moves: r.steps,
                        known_conflicts: Some(r.csc_conflicts),
                        ..c
                    };
                    Ok((reduced, r.scored, r.pruned))
                },
            )
            .map(Reduced)
    }
}

// --- Reduced ---------------------------------------------------------

/// Past the (possibly skipped) concurrency-reduction stage.
#[derive(Debug)]
pub struct Reduced(Chain);

impl Reduced {
    /// The (primary candidate's) STG after reduction.
    pub fn stg(&self) -> &Stg {
        &self.0.primary().stg
    }

    /// The (primary candidate's) state graph after reduction.
    pub fn state_graph(&self) -> &StateGraph {
        &self.0.primary().sg
    }

    /// The serializing moves the reduction applied to the primary
    /// candidate, with per-move statistics (empty when the stage was
    /// skipped or found nothing to improve).
    pub fn moves(&self) -> &[MoveStep] {
        &self.0.primary().moves
    }

    /// Diagnostics recorded so far.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.0.ctx.diag
    }

    /// Resolves remaining CSC conflicts by state-signal insertion
    /// (a no-op for candidates that already satisfy CSC).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Synth`] when the insertion search stalls (soft
    /// per candidate while a selection is pending).
    pub fn resolve(self, opts: &CscOptions) -> Result<Resolved> {
        let mut chain = self.0;
        chain.ctx.csc = opts.clone();
        chain
            .step(
                Stage::Resolve,
                "stage.resolve",
                ["tried", "rebuilt"],
                |c, memo| {
                    if c.known_conflicts == Some(0) {
                        return Ok((c, 0, 0));
                    }
                    // One analysis serves both the conflict check and the
                    // resolver; the resolver never re-analyzes a graph it
                    // was handed an analysis for.
                    let analysis = analyze_csc(&c.sg);
                    if analysis.has_csc() {
                        let resolved = Candidate {
                            known_conflicts: Some(0),
                            ..c
                        };
                        return Ok((resolved, 0, 0));
                    }
                    let r = resolve_csc_with(&c.stg, c.sg, &analysis, opts, memo)
                        .map_err(PipelineError::Synth)?;
                    let resolved = Candidate {
                        stg: r.stg,
                        sg: r.sg,
                        inserted: r.inserted,
                        known_conflicts: Some(0),
                        ..c
                    };
                    Ok((resolved, r.tried, r.rebuilt))
                },
            )
            .map(Resolved)
    }
}

// --- Resolved --------------------------------------------------------

/// CSC satisfied on every live candidate: ready for logic synthesis.
#[derive(Debug)]
pub struct Resolved(Chain);

impl Resolved {
    /// The (primary candidate's) STG after any CSC insertions.
    pub fn stg(&self) -> &Stg {
        &self.0.primary().stg
    }

    /// The (primary candidate's) conflict-free state graph.
    pub fn state_graph(&self) -> &StateGraph {
        &self.0.primary().sg
    }

    /// State signals inserted into the primary candidate to resolve
    /// CSC (empty when the specification already satisfied it).
    pub fn inserted(&self) -> &[String] {
        &self.0.primary().inserted
    }

    /// Diagnostics recorded so far.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.0.ctx.diag
    }

    /// Derives, minimizes and maps the next-state logic in the given
    /// style, verifies the netlist against the specification, and — for
    /// partial inputs — commits the ranked candidate selection (state
    /// signals inserted, then literal estimate, then timed cycle).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Synth`] / [`PipelineError::Timing`] from
    /// synthesis, verification or the ranking simulation.
    pub fn synthesize(self, style: ImplStyle) -> Result<Synthesized> {
        self.finish(style, true)
    }

    /// [`Resolved::synthesize`] without the final
    /// implementation-vs-specification check.
    ///
    /// # Errors
    ///
    /// See [`Resolved::synthesize`].
    pub fn synthesize_unverified(self, style: ImplStyle) -> Result<Synthesized> {
        self.finish(style, false)
    }

    fn finish(self, style: ImplStyle, verify: bool) -> Result<Synthesized> {
        let t = Instant::now();
        let Chain { cands, mut ctx } = self.0;
        let run_trail = trail(
            ctx.expand.as_ref(),
            ctx.reduce.as_ref(),
            &ctx.csc,
            style,
            verify,
        );
        let key = mix(ctx.spec_fp, "key", &[run_trail]);
        if !ctx.looked_up {
            if let Some(done) = ctx.lookup(key) {
                return Ok(done);
            }
        }
        let sp = ctx.span.span("stage.synthesize");
        let memo = &ctx.memo;
        let memo_before = (memo.hits(), memo.misses());
        let selecting = ctx.selecting;
        // Only a pending selection needs the timed cycle; it is scored
        // under the same delay model the reduce stage optimized.
        let (input_delay, gate_delay) = ctx
            .reduce
            .as_ref()
            .map_or((2.0, 1.0), |r| (r.input_delay, r.gate_delay));
        // With several expansion candidates in flight, each one's
        // synthesis is shared through the attached cache under the key
        // a *standalone* run of that candidate would use (candidate
        // fingerprint x complete-chain trail) — lattice siblings seen
        // before, in this run or any other against the same cache,
        // skip their synthesis entirely.
        let cand_cache = ctx.cache.as_ref().filter(|_| selecting);
        let cand_trail = trail(None, ctx.reduce.as_ref(), &ctx.csc, style, verify);
        let shared_hits = AtomicU64::new(0);
        // Each candidate's derivation (next-state functions, minimized
        // and mapped) and its check get child spans of this stage.
        let span = sp.ctx();
        let outcomes = stage_map(cands, |c| {
            let cand_key = mix(c.fp, "key", &[cand_trail]);
            let cycle_of = |synthesis: &Synthesis| -> Result<u64> {
                if !selecting {
                    return Ok(0);
                }
                let delays = DelayModel::uniform(&synthesis.stg, input_delay, gate_delay);
                let run = simulate(&synthesis.stg, &delays, &SimOptions::default())?;
                Ok(run.period.to_bits())
            };
            if let Some(cache) = cand_cache {
                if let Some(mut synthesis) = cache.lookup_shared(cand_key) {
                    shared_hits.fetch_add(1, Ordering::Relaxed);
                    // The cached entry is choice-agnostic (stored as a
                    // standalone run); re-attach this candidate's
                    // ordering choices.
                    synthesis.expansion = c.choices;
                    let cycle_bits = cycle_of(&synthesis)?;
                    return Ok((synthesis, cycle_bits));
                }
            }
            let derive = span.span("synth.derive");
            let netlist = match style {
                ImplStyle::ComplexGate => synthesize_complex_gates_with(&c.sg, memo)?.netlist,
                ImplStyle::GeneralizedC => synthesize_gc(&c.sg)?.netlist,
            };
            derive.end(&[]);
            if verify {
                let check = span.span("synth.verify");
                verify_against_sg(&c.sg, &netlist)?;
                check.end(&[]);
            }
            let synthesis = Synthesis {
                stg: c.stg,
                sg: c.sg,
                netlist,
                inserted: c.inserted,
                moves: c.moves,
                expansion: c.choices,
            };
            let cycle_bits = cycle_of(&synthesis)?;
            if let Some(cache) = cand_cache {
                // Store choice-agnostic, exactly as a standalone run of
                // this candidate would have produced it.
                let mut stored = synthesis.clone();
                stored.expansion = Vec::new();
                cache.insert(cand_key, stored);
            }
            Ok((synthesis, cycle_bits))
        });
        ctx.diag.shared_candidate_hits += shared_hits.load(Ordering::Relaxed);
        enforce_live(&outcomes)?;

        // The ranked selection: (state signals inserted, literal
        // estimate, timed cycle bits, enumeration index), strictly
        // improving so the earliest candidate wins ties. Like the
        // cycle, the literal estimate is only paid for a pending
        // selection: a lone candidate's score is never compared. A
        // complex-gate candidate's functions are in the memo, derived
        // by its synthesis just above.
        let mut best: Option<((usize, u32, u64, usize), usize)> = None;
        for (i, outcome) in outcomes.iter().enumerate() {
            let Ok((s, cycle_bits)) = outcome else {
                continue;
            };
            let literals = if selecting {
                literal_estimate_with(&s.sg, memo)
            } else {
                0
            };
            let score = (s.inserted.len(), literals, *cycle_bits, i);
            if !matches!(best, Some((b, _)) if b <= score) {
                best = Some((score, i));
            }
        }
        let (_, winner) = best.expect("enforce_live guarantees a live candidate");
        let ranked = outcomes.iter().filter(|o| o.is_ok()).count();
        let (synthesis, _) = outcomes
            .into_iter()
            .nth(winner)
            .expect("winner index in range")
            .expect("winner is live");

        ctx.diag.record(
            Stage::Synthesize,
            t.elapsed(),
            Some(SgCounts::of(&synthesis.sg)),
            Some(ranked),
            None,
        );
        let [hits, misses] = memo_fields(memo, memo_before);
        sp.end(&[("ranked", FieldVal::U64(ranked as u64)), hits, misses]);
        if let Some(cache) = &ctx.cache {
            cache.insert(key, synthesis.clone());
        }
        Ok(Synthesized {
            synthesis,
            diag: ctx.diag,
        })
    }
}

// --- Synthesized -----------------------------------------------------

/// The finished pipeline: the winning synthesis and the diagnostics of
/// the run that produced it.
#[derive(Debug)]
pub struct Synthesized {
    pub(crate) synthesis: Synthesis,
    pub(crate) diag: Diagnostics,
}

impl Synthesized {
    /// The mapped, verified netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.synthesis.netlist
    }

    /// Every artifact of the winning candidate.
    pub fn synthesis(&self) -> &Synthesis {
        &self.synthesis
    }

    /// What the run recorded about itself: per-stage wall times and
    /// counters, plus cache activity.
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diag
    }

    /// Consumes the stage, returning the synthesis.
    pub fn into_synthesis(self) -> Synthesis {
        self.synthesis
    }

    /// Consumes the stage, returning synthesis and diagnostics.
    pub fn into_parts(self) -> (Synthesis, Diagnostics) {
        (self.synthesis, self.diag)
    }
}
