//! The Tables 1/2 report: data collection and rendering.
//!
//! [`collect`] drives the [`Pipeline`] builder over every corpus entry
//! in the same four flavors the golden suite pins — default, with the
//! Section 4 reduce stage, and (for partial entries) the Section 3
//! expansion extremes plus the ranked selection and its reduce
//! composition — against one shared [`SynthCache`], timing each row.
//! After the first pass it *replays* every successful run against the
//! cache, so the report also demonstrates the O(1) repeated-synthesis
//! path and its hit counters.
//!
//! [`render_text`] formats the classic column report (now with a
//! per-row `ms` column and a cache footer); [`render_json`] emits the
//! same numbers machine-readably — the `BENCH_tables.json`
//! perf-trajectory baseline at the repository root is its output.

use std::time::Instant;

use reshuffle::{
    ExpansionOptions, MoveStep, Pipeline, PipelineOptions, ReduceOptions, Stg, SynthCache,
    Synthesis,
};
use reshuffle_petri::parse_g;
use reshuffle_sg::{build_state_graph, csc::analyze_csc, StateGraph};
use reshuffle_synth::literal_estimate;
use reshuffle_timing::{simulate, DelayModel, SimOptions};

use crate::examples;
use reshuffle::obs::json::Json;

/// One synthesized path of a row: literals, cycle time, state signals
/// inserted, serializing moves applied, expansion choices committed.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStats {
    /// Literal estimate of the synthesized state graph.
    pub lits: u32,
    /// Steady-state cycle time under the reduce stage's delay model.
    pub cycle: f64,
    /// State signals inserted to resolve CSC.
    pub inserted: usize,
    /// Serializing moves applied.
    pub moves: usize,
    /// Reshuffling ordering choices committed.
    pub choices: usize,
}

/// One collected corpus row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Example name.
    pub name: &'static str,
    /// States of the specification's graph.
    pub states: usize,
    /// CSC conflicts of the specification.
    pub csc: usize,
    /// True for partial (`.handshake`) entries.
    pub partial: bool,
    /// Default pipeline (complete entries; `None` = path failed).
    pub original: Option<PathStats>,
    /// With the reduce stage; for partial entries this is the
    /// expansion+reduction composition.
    pub reduced: Option<PathStats>,
    /// Eager expansion extreme (partial entries only).
    pub eager: Option<PathStats>,
    /// Lazy expansion extreme (partial entries only).
    pub lazy: Option<PathStats>,
    /// Ranked expansion selection (partial entries only).
    pub selected: Option<PathStats>,
    /// Pre-rendered `--moves` body (empty when no moves were applied).
    pub moves_body: String,
    /// Wall time spent synthesizing this row's paths, first pass.
    pub wall_ms: f64,
}

/// A collected row, or the reason the whole row failed.
#[derive(Debug, Clone)]
pub enum RowResult {
    /// The row's paths (individually optional).
    Row(Box<Row>),
    /// The row could not be collected at all.
    Failed {
        /// Example name.
        name: &'static str,
        /// What went wrong.
        error: String,
    },
}

/// Pre-reduction and prefix-trie counters summed over the first-pass
/// corpus runs (from each run's [`reshuffle::Diagnostics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrereduceTotals {
    /// Places removed by structural pre-reduction.
    pub places_removed: u64,
    /// Transitions removed by structural pre-reduction.
    pub transitions_removed: u64,
    /// Lattice restriction products served from the shared-prefix
    /// cache (partial entries only).
    pub lattice_prefix_hits: u64,
}

impl PrereduceTotals {
    fn add(&mut self, diag: &reshuffle::Diagnostics) {
        self.places_removed += diag.prereduce_places_removed;
        self.transitions_removed += diag.prereduce_transitions_removed;
        self.lattice_prefix_hits += diag.lattice_prefix_hits;
    }
}

/// One scaled end-to-end trajectory row (`tables --scaled N`): the
/// synthetic fork/join controller pushed through the *full* pipeline
/// at a state count the default budget would refuse.
#[derive(Debug, Clone)]
pub struct TrajectoryRow {
    /// Variant name (`scaled{n}` plain, `scaled{n}p` dummy-padded).
    pub model: String,
    /// The generator's `n`.
    pub n: usize,
    /// Closed-form raw state count of the *unreduced* specification —
    /// what the build would have to explore with pre-reduction off
    /// (for the padded variant this exceeds any practical budget).
    pub states_raw: usize,
    /// States the pipeline actually built after pre-reduction.
    pub states_built: usize,
    /// Places removed by pre-reduction on this run.
    pub places_removed: u64,
    /// Transitions removed by pre-reduction on this run.
    pub transitions_removed: u64,
    /// Lattice restriction products served from the prefix trie (0:
    /// the scaled specifications are complete, no lattice exists).
    pub lattice_prefix_hits: u64,
    /// Literal estimate of the synthesized state graph.
    pub lits: u32,
    /// End-to-end wall time of the run.
    pub wall_ms: f64,
}

/// The whole report: rows plus cache behaviour.
#[derive(Debug, Clone)]
pub struct TablesReport {
    /// One result per corpus entry, in corpus order.
    pub rows: Vec<RowResult>,
    /// Cached results after the first pass.
    pub cache_entries: usize,
    /// Wall time of the first (cold) pass over the corpus.
    pub first_pass_ms: f64,
    /// Cache hits during the replay of every successful run.
    pub replay_hits: u64,
    /// Cache misses during the replay (0 when every run replays).
    pub replay_misses: u64,
    /// Wall time of the replay pass.
    pub replay_ms: f64,
    /// Pre-reduction / prefix-trie counters over the first pass.
    pub prereduce: PrereduceTotals,
    /// Scaled trajectory rows (empty unless `--scaled N` asked for
    /// them).
    pub trajectory: Vec<TrajectoryRow>,
}

impl TablesReport {
    /// Number of rows that failed to collect.
    pub fn failures(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r, RowResult::Failed { .. }))
            .count()
    }
}

/// A successful run to replay against the cache.
type ReplayItem = (Stg, Option<StateGraph>, PipelineOptions);

/// Measures one synthesized path under the same delay model the
/// reduction search optimized for, so `cycle'` reports the optimizer's
/// own objective.
fn path_of(s: &Synthesis, ropts: &ReduceOptions) -> Result<PathStats, String> {
    let delays = DelayModel::uniform(&s.stg, ropts.input_delay, ropts.gate_delay);
    let run = simulate(&s.stg, &delays, &SimOptions::default()).map_err(|e| e.to_string())?;
    Ok(PathStats {
        lits: literal_estimate(&s.sg),
        cycle: run.period,
        inserted: s.inserted.len(),
        moves: s.moves.len(),
        choices: s.expansion.len(),
    })
}

/// Runs one pipeline flavor through the builder against the shared
/// cache, recording successful runs for the replay pass.
fn run_cached(
    stg: &Stg,
    sg: Option<&StateGraph>,
    opts: &PipelineOptions,
    cache: &SynthCache,
    replay: &mut Vec<ReplayItem>,
    totals: &mut PrereduceTotals,
) -> Result<Synthesis, String> {
    let parsed = match sg {
        Some(sg) => Pipeline::from_parts(stg.clone(), sg.clone()),
        None => Pipeline::from_stg(stg),
    };
    let done = parsed
        .with_cache(cache)
        .run(opts)
        .map_err(|e| e.to_string())?;
    totals.add(done.diagnostics());
    replay.push((stg.clone(), sg.cloned(), opts.clone()));
    Ok(done.into_synthesis())
}

/// Renders the accepted serializing moves of a reduction (the typed
/// trajectory carried on [`Synthesis::moves`]) with before→after
/// deltas, starting from the pre-reduction specification's statistics.
fn render_moves(
    spec: &Stg,
    spec_sg: &StateGraph,
    ropts: &ReduceOptions,
    steps: &[MoveStep],
) -> String {
    let delays = DelayModel::uniform(spec, ropts.input_delay, ropts.gate_delay);
    let Ok(run) = simulate(spec, &delays, &SimOptions::default()) else {
        return String::new();
    };
    let mut lits = literal_estimate(spec_sg);
    let mut cycle = run.period;
    let mut conf = analyze_csc(spec_sg).num_csc_conflicts();
    let mut out = String::new();
    for step in steps {
        out.push_str(&format!(
            "    move {:<16} lits {:>3} -> {:<3} cycle {:>5.1} -> {:<5.1} csc {} -> {}\n",
            step.label, lits, step.literals, cycle, step.cycle, conf, step.csc_conflicts
        ));
        lits = step.literals;
        cycle = step.cycle;
        conf = step.csc_conflicts;
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn collect_row(
    name: &'static str,
    src: &str,
    cache: &SynthCache,
    ropts: &ReduceOptions,
    eopts: &ExpansionOptions,
    with_move_bodies: bool,
    replay: &mut Vec<ReplayItem>,
    totals: &mut PrereduceTotals,
) -> Result<Row, String> {
    let spec = parse_g(src).map_err(|e| e.to_string())?;
    let spec_sg = build_state_graph(&spec).map_err(|e| e.to_string())?;
    let states = spec_sg.num_states();
    let csc = analyze_csc(&spec_sg).num_csc_conflicts();
    let t = Instant::now();

    if spec.is_partial() {
        // Expansion extremes, each through the default pipeline.
        let cands =
            reshuffle::handshake::expand_handshakes(&spec, eopts).map_err(|e| e.to_string())?;
        let mut extreme = |c: &reshuffle::Reshuffling| {
            run_cached(
                &c.stg,
                Some(&c.sg),
                &PipelineOptions::default(),
                cache,
                replay,
                totals,
            )
            .and_then(|s| path_of(&s, ropts))
        };
        let eager = extreme(&cands[0]).ok();
        let lazy = extreme(cands.last().unwrap()).ok();
        // The ranked selection, and its reduce composition.
        let expand_opts = PipelineOptions::new().with_expand(eopts.clone());
        let selected_synth = run_cached(&spec, None, &expand_opts, cache, replay, totals)?;
        let selected = path_of(&selected_synth, ropts)?;
        let composed_opts = PipelineOptions::new()
            .with_expand(eopts.clone())
            .with_reduce(ropts.clone());
        let composed_synth = run_cached(&spec, None, &composed_opts, cache, replay, totals)?;
        let composed = path_of(&composed_synth, ropts)?;
        // Deltas start from the winning candidate's own (pre-reduction)
        // statistics.
        let moves_body = if !with_move_bodies || composed_synth.moves.is_empty() {
            String::new()
        } else {
            cands
                .iter()
                .find(|c| c.choices == composed_synth.expansion)
                .map(|w| render_moves(&w.stg, &w.sg, ropts, &composed_synth.moves))
                .unwrap_or_default()
        };
        return Ok(Row {
            name,
            states,
            csc,
            partial: true,
            original: None,
            reduced: Some(composed),
            eager,
            lazy,
            selected: Some(selected),
            moves_body,
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
        });
    }

    let original = run_cached(
        &spec,
        Some(&spec_sg),
        &PipelineOptions::default(),
        cache,
        replay,
        totals,
    )
    .and_then(|s| path_of(&s, ropts))
    .ok();
    let reduced_opts = PipelineOptions::new().with_reduce(ropts.clone());
    let reduced_synth = run_cached(&spec, Some(&spec_sg), &reduced_opts, cache, replay, totals)?;
    let reduced = path_of(&reduced_synth, ropts)?;
    let moves_body = if !with_move_bodies || reduced_synth.moves.is_empty() {
        String::new()
    } else {
        render_moves(&spec, &spec_sg, ropts, &reduced_synth.moves)
    };
    Ok(Row {
        name,
        states,
        csc,
        partial: false,
        original,
        reduced: Some(reduced),
        eager: None,
        lazy: None,
        selected: None,
        moves_body,
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
    })
}

/// Collects the full report: a cold pass over the corpus, then a
/// cache replay of every successful run. `with_move_bodies` controls
/// whether the per-move `--moves` delta bodies are rendered (they cost
/// an extra timed simulation per reduced row, so callers that will not
/// print them skip the work).
pub fn collect(with_move_bodies: bool) -> TablesReport {
    collect_scaled(with_move_bodies, None)
}

/// State budget of the scaled trajectory runs: the default 10^6 budget
/// refuses `scaled_pipeline(12)`'s 1 062 884 states by design, so the
/// trajectory raises it explicitly.
const SCALED_STATE_BUDGET: usize = 2_000_000;

/// Pushes `scaled_pipeline(n)` and its dummy-padded variant through
/// the *full* pipeline (budget raised past the default) and records
/// what pre-reduction did for each: the padded variant's raw state
/// space (`2*4^n + 2`) collapses to the plain one's (`2*3^n + 2`)
/// before the build ever runs.
fn collect_trajectory(n: usize) -> Vec<TrajectoryRow> {
    let variants = [
        (
            format!("scaled{n}"),
            examples::scaled_pipeline(n),
            examples::scaled_pipeline_states(n),
        ),
        (
            format!("scaled{n}p"),
            examples::scaled_pipeline_padded(n),
            examples::scaled_pipeline_padded_states(n),
        ),
    ];
    let opts = PipelineOptions::new().with_state_budget(SCALED_STATE_BUDGET);
    variants
        .into_iter()
        .map(|(model, src, states_raw)| {
            let t = Instant::now();
            let done = Pipeline::from_g(&src)
                .and_then(|p| p.run(&opts))
                .unwrap_or_else(|e| panic!("{model}: scaled trajectory run failed: {e}"));
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let diag = done.diagnostics();
            let states_built = diag
                .stage(reshuffle::Stage::Expand)
                .and_then(|r| r.states)
                .unwrap_or(0);
            let row = TrajectoryRow {
                n,
                states_raw,
                states_built,
                places_removed: diag.prereduce_places_removed,
                transitions_removed: diag.prereduce_transitions_removed,
                lattice_prefix_hits: diag.lattice_prefix_hits,
                lits: literal_estimate(&done.synthesis().sg),
                wall_ms,
                model,
            };
            row
        })
        .collect()
}

/// [`collect`], optionally also collecting the scaled end-to-end
/// trajectory (`tables --scaled N`): `scaled_pipeline(scaled)` and its
/// dummy-padded variant through the full pipeline.
pub fn collect_scaled(with_move_bodies: bool, scaled: Option<usize>) -> TablesReport {
    let cache = SynthCache::new();
    let ropts = ReduceOptions::default();
    let eopts = ExpansionOptions::default();
    let mut replay: Vec<ReplayItem> = Vec::new();
    let mut totals = PrereduceTotals::default();

    let t_first = Instant::now();
    let rows: Vec<RowResult> = examples::ALL
        .iter()
        .map(|(name, src)| {
            match collect_row(
                name,
                src,
                &cache,
                &ropts,
                &eopts,
                with_move_bodies,
                &mut replay,
                &mut totals,
            ) {
                Ok(row) => RowResult::Row(Box::new(row)),
                Err(error) => RowResult::Failed { name, error },
            }
        })
        .collect();
    let first_pass_ms = t_first.elapsed().as_secs_f64() * 1e3;

    let (hits0, misses0) = (cache.hits(), cache.misses());
    let t_replay = Instant::now();
    for (stg, sg, opts) in &replay {
        let parsed = match sg {
            Some(sg) => Pipeline::from_parts(stg.clone(), sg.clone()),
            None => Pipeline::from_stg(stg),
        };
        let _ = parsed.with_cache(&cache).run(opts);
    }
    let replay_ms = t_replay.elapsed().as_secs_f64() * 1e3;

    TablesReport {
        rows,
        cache_entries: cache.len(),
        first_pass_ms,
        replay_hits: cache.hits() - hits0,
        replay_misses: cache.misses() - misses0,
        replay_ms,
        prereduce: totals,
        trajectory: scaled.map(collect_trajectory).unwrap_or_default(),
    }
}

fn fmt3(p: &Option<PathStats>) -> String {
    match p {
        Some(p) => format!("{:>5} {:>6.1} {:>5}", p.lits, p.cycle, p.inserted),
        None => format!("{:>5} {:>6} {:>5}", "-", "-", "-"),
    }
}

fn fmt2(p: &Option<PathStats>) -> String {
    match p {
        Some(p) => format!("{:>5} {:>6.1}", p.lits, p.cycle),
        None => format!("{:>5} {:>6}", "-", "-"),
    }
}

/// Renders the classic column report; `show_moves` appends the
/// per-move delta lines under each row whose winning path serialized
/// concurrency.
pub fn render_text(report: &TablesReport, show_moves: bool) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:>6} {:>4} | {:>5} {:>6} {:>5} | {:>5} {:>6} {:>5} {:>3} | {:>5} {:>6} | {:>5} {:>6} | {:>5} {:>6} {:>3} | {:>8}\n",
        "model", "states", "csc", "lits", "cycle", "sig+", "lits'", "cycle'", "sig+'", "mv",
        "elits", "ecycl", "llits", "lcycl", "xlits", "xcycl", "chc", "ms"
    ));
    for row in &report.rows {
        let row = match row {
            RowResult::Failed { name, error } => {
                out.push_str(&format!("{name:<8} FAILED: {error}\n"));
                continue;
            }
            RowResult::Row(row) => row,
        };
        let reduced = row.reduced.as_ref().expect("reduced path always collected");
        if row.partial {
            let selected = row
                .selected
                .as_ref()
                .expect("selected path always collected");
            out.push_str(&format!(
                "{:<8} {:>6} {:>4} | {:>5} {:>6} {:>5} | {:>5} {:>6.1} {:>5} {:>3} | {} | {} | {:>5} {:>6.1} {:>3} | {:>8.1}\n",
                row.name, row.states, row.csc, "-", "-", "-",
                reduced.lits, reduced.cycle, reduced.inserted, reduced.moves,
                fmt2(&row.eager), fmt2(&row.lazy),
                selected.lits, selected.cycle, selected.choices, row.wall_ms,
            ));
        } else {
            let dash2 = format!("{:>5} {:>6}", "-", "-");
            out.push_str(&format!(
                "{:<8} {:>6} {:>4} | {} | {:>5} {:>6.1} {:>5} {:>3} | {} | {} | {:>5} {:>6} {:>3} | {:>8.1}\n",
                row.name, row.states, row.csc,
                fmt3(&row.original),
                reduced.lits, reduced.cycle, reduced.inserted, reduced.moves,
                dash2, dash2, "-", "-", "-", row.wall_ms,
            ));
        }
        if show_moves {
            out.push_str(&row.moves_body);
        }
    }
    out.push_str(&format!(
        "cache: {} entries; first pass {:.1} ms; replay {} hits / {} misses in {:.1} ms\n",
        report.cache_entries,
        report.first_pass_ms,
        report.replay_hits,
        report.replay_misses,
        report.replay_ms,
    ));
    out.push_str(&format!(
        "prereduce: {} places / {} transitions removed; {} lattice prefix hits\n",
        report.prereduce.places_removed,
        report.prereduce.transitions_removed,
        report.prereduce.lattice_prefix_hits,
    ));
    for row in &report.trajectory {
        out.push_str(&format!(
            "trajectory: {:<10} raw {:>9} -> built {:>8} states; -{} places -{} transitions; lits {}; {:.1} ms\n",
            row.model,
            row.states_raw,
            row.states_built,
            row.places_removed,
            row.transitions_removed,
            row.lits,
            row.wall_ms,
        ));
    }
    out
}

fn json_path(p: &Option<PathStats>) -> Json {
    match p {
        None => Json::Null,
        Some(p) => Json::obj(vec![
            ("lits", Json::Num(p.lits as f64)),
            ("cycle", Json::Num(p.cycle)),
            ("sig", Json::Num(p.inserted as f64)),
            ("mv", Json::Num(p.moves as f64)),
            ("chc", Json::Num(p.choices as f64)),
        ]),
    }
}

/// Renders the report as the machine-readable `reshuffle-tables/1`
/// schema. `with_timings: false` zeroes the machine-dependent wall
/// times (the committed `BENCH_tables.json` baseline format, so a
/// baseline refresh only diffs when a deterministic number moved).
pub fn render_json(report: &TablesReport, with_timings: bool) -> Json {
    let ms = |v: f64| Json::Num(if with_timings { v } else { 0.0 });
    let rows: Vec<Json> = report
        .rows
        .iter()
        .map(|row| match row {
            RowResult::Failed { name, error } => Json::obj(vec![
                ("model", Json::Str(name.to_string())),
                ("error", Json::Str(error.clone())),
            ]),
            RowResult::Row(row) => Json::obj(vec![
                ("model", Json::Str(row.name.to_string())),
                ("states", Json::Num(row.states as f64)),
                ("csc", Json::Num(row.csc as f64)),
                ("partial", Json::Bool(row.partial)),
                (
                    "paths",
                    Json::obj(vec![
                        ("default", json_path(&row.original)),
                        ("reduce", json_path(&row.reduced)),
                        ("eager", json_path(&row.eager)),
                        ("lazy", json_path(&row.lazy)),
                        ("selected", json_path(&row.selected)),
                    ]),
                ),
                ("wall_ms", ms(row.wall_ms)),
            ]),
        })
        .collect();
    let trajectory: Vec<Json> = report
        .trajectory
        .iter()
        .map(|row| {
            Json::obj(vec![
                ("model", Json::Str(row.model.clone())),
                ("n", Json::Num(row.n as f64)),
                ("states_raw", Json::Num(row.states_raw as f64)),
                ("states_built", Json::Num(row.states_built as f64)),
                ("places_removed", Json::Num(row.places_removed as f64)),
                (
                    "transitions_removed",
                    Json::Num(row.transitions_removed as f64),
                ),
                (
                    "lattice_prefix_hits",
                    Json::Num(row.lattice_prefix_hits as f64),
                ),
                ("lits", Json::Num(row.lits as f64)),
                ("wall_ms", ms(row.wall_ms)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::Str("reshuffle-tables/1".to_string())),
        ("rows", Json::Arr(rows)),
        (
            "cache",
            Json::obj(vec![
                ("entries", Json::Num(report.cache_entries as f64)),
                ("first_pass_ms", ms(report.first_pass_ms)),
                ("replay_hits", Json::Num(report.replay_hits as f64)),
                ("replay_misses", Json::Num(report.replay_misses as f64)),
                ("replay_ms", ms(report.replay_ms)),
            ]),
        ),
        (
            "prereduce",
            Json::obj(vec![
                (
                    "places_removed",
                    Json::Num(report.prereduce.places_removed as f64),
                ),
                (
                    "transitions_removed",
                    Json::Num(report.prereduce.transitions_removed as f64),
                ),
                (
                    "lattice_prefix_hits",
                    Json::Num(report.prereduce.lattice_prefix_hits as f64),
                ),
                ("trajectory", Json::Arr(trajectory)),
            ]),
        ),
        ("failures", Json::Num(report.failures() as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshuffle::obs::json;

    #[test]
    fn report_collects_renders_and_reparses() {
        // n=4 keeps the trajectory runs cheap (164 / 514 raw states)
        // while exercising the same code path as the committed
        // `--scaled 12` baseline.
        let report = collect_scaled(true, Some(4));
        assert_eq!(report.rows.len(), examples::ALL.len());
        assert_eq!(report.failures(), 0, "corpus rows failed");
        // Every successful first-pass run replays from the cache.
        assert!(report.replay_hits > 0);
        assert_eq!(report.replay_misses, 0, "a replayed run missed the cache");
        assert!(report.cache_entries as u64 >= report.replay_hits);

        // The text report prints every corpus row and the cache footer.
        let text = render_text(&report, true);
        for (name, _) in examples::ALL {
            assert!(
                text.lines().any(|l| l.starts_with(name)),
                "missing row {name} in:\n{text}"
            );
        }
        assert!(text.contains("cache: "), "{text}");
        assert!(text.contains("move "), "no --moves body rendered:\n{text}");

        // The JSON report parses back and carries the same numbers.
        let rendered = render_json(&report, true).render();
        let parsed = json::parse(&rendered).expect("tables --json output must parse");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("reshuffle-tables/1")
        );
        let rows = parsed.get("rows").and_then(Json::items).unwrap();
        assert_eq!(rows.len(), examples::ALL.len());
        // Spot-check a pinned value: toggle's default path is 1 literal.
        let toggle = rows
            .iter()
            .find(|r| r.get("model").and_then(Json::as_str) == Some("toggle"))
            .unwrap();
        let lits = toggle
            .get("paths")
            .and_then(|p| p.get("default"))
            .and_then(|d| d.get("lits"))
            .and_then(Json::as_num);
        assert_eq!(lits, Some(1.0));
        assert_eq!(parsed.get("failures").and_then(Json::as_num), Some(0.0));

        // The partial entries exercised the shared-prefix trie; the
        // corpus itself is irredundant, so pre-reduction removes
        // nothing (outcome neutrality of the golden rows).
        assert!(report.prereduce.lattice_prefix_hits > 0);
        assert_eq!(report.prereduce.places_removed, 0);
        assert_eq!(report.prereduce.transitions_removed, 0);

        // The scaled trajectory ran both variants end-to-end: the
        // plain net pre-reduces to itself, the padded one collapses
        // from 2*4^n+2 raw states to the plain net's 2*3^n+2 build.
        assert_eq!(report.trajectory.len(), 2);
        let (plain, padded) = (&report.trajectory[0], &report.trajectory[1]);
        assert_eq!(plain.model, "scaled4");
        assert_eq!(plain.states_raw, examples::scaled_pipeline_states(4));
        assert_eq!(plain.states_built, plain.states_raw);
        assert_eq!(plain.places_removed, 0);
        assert_eq!(padded.model, "scaled4p");
        assert_eq!(
            padded.states_raw,
            examples::scaled_pipeline_padded_states(4)
        );
        assert_eq!(padded.states_built, examples::scaled_pipeline_states(4));
        assert_eq!(padded.transitions_removed, 8, "2n series dummies merged");
        assert!(padded.places_removed >= 8);
        // Both synthesize the same circuit: the padded spec commits the
        // same signal behaviour.
        assert_eq!(plain.lits, padded.lits);
        let text = render_text(&report, false);
        assert!(text.contains("prereduce: "), "{text}");
        assert!(text.contains("trajectory: scaled4p"), "{text}");

        // The baseline rendering zeroes every machine-dependent timing.
        let baseline = json::parse(&render_json(&report, false).render()).unwrap();
        let cache = baseline.get("cache").unwrap();
        assert_eq!(cache.get("first_pass_ms").and_then(Json::as_num), Some(0.0));
        assert_eq!(cache.get("replay_ms").and_then(Json::as_num), Some(0.0));
        for row in baseline.get("rows").and_then(Json::items).unwrap() {
            assert_eq!(row.get("wall_ms").and_then(Json::as_num), Some(0.0));
        }
        let pre = baseline.get("prereduce").unwrap();
        assert!(pre.get("lattice_prefix_hits").and_then(Json::as_num) > Some(0.0));
        let traj = pre.get("trajectory").and_then(Json::items).unwrap();
        assert_eq!(traj.len(), 2);
        for row in traj {
            assert_eq!(row.get("wall_ms").and_then(Json::as_num), Some(0.0));
        }
    }
}
