//! Per-stage diagnostics of a pipeline run.
//!
//! Every [`Pipeline`](crate::Pipeline) stage transition appends a
//! [`StageReport`] — wall time, resulting state count, live candidate
//! count and pruned/discarded count — to the [`Diagnostics`] record it
//! threads through to [`Synthesized`](crate::Synthesized). Cache
//! activity of [`SynthCache`](crate::SynthCache) is counted per run in
//! [`Diagnostics::cache_hits`] / [`Diagnostics::cache_misses`]: a run
//! served from the cache records a hit plus a [`Stage::CacheHit`]
//! pseudo-stage whose wall time is the lookup latency — the real
//! stages did not execute, but the hit path is not free.

use std::fmt;
use std::time::Duration;

/// One stage of the staged pipeline, as reported in diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// `.g` parsing ([`Pipeline::from_g`](crate::Pipeline::from_g)).
    Parse,
    /// Handshake expansion / completeness gate
    /// ([`Parsed::expand`](crate::Parsed::expand),
    /// [`Parsed::complete`](crate::Parsed::complete)).
    Expand,
    /// Concurrency reduction ([`Expanded::reduce`](crate::Expanded::reduce)).
    Reduce,
    /// CSC resolution ([`Reduced::resolve`](crate::Reduced::resolve)).
    Resolve,
    /// Logic synthesis, verification and — for partial specifications —
    /// the ranked candidate selection
    /// ([`Resolved::synthesize`](crate::Resolved::synthesize)).
    Synthesize,
    /// Pseudo-stage recorded when the run was served from the synthesis
    /// cache: its wall time is the cache lookup latency. Makes hit-path
    /// cost visible in `/stats` and `/metrics` instead of vanishing.
    CacheHit,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Parse => "parse",
            Stage::Expand => "expand",
            Stage::Reduce => "reduce",
            Stage::Resolve => "resolve",
            Stage::Synthesize => "synthesize",
            Stage::CacheHit => "cache_hit",
        })
    }
}

/// What one executed stage did: how long it took and what it counted.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Which stage ran.
    pub stage: Stage,
    /// Wall time the stage transition took.
    pub wall: Duration,
    /// States of the (primary candidate's) state graph after the stage,
    /// when the stage has one.
    pub states: Option<usize>,
    /// Arcs of that state graph.
    pub arcs: Option<usize>,
    /// Peak breadth-first frontier of the stage's state-graph build —
    /// only present when the stage actually explored a net (the
    /// expansion/completeness gate), not when it transformed an
    /// existing graph.
    pub peak_frontier: Option<usize>,
    /// Stage-specific candidate count: reshufflings enumerated
    /// (expand), serializing moves scored (reduce), insertions tried
    /// (resolve), candidates ranked (synthesize).
    pub candidates: Option<usize>,
    /// Stage-specific prune count: lattice points discarded (expand),
    /// symmetry-dominated moves (reduce).
    pub pruned: Option<usize>,
}

/// Everything a pipeline run recorded about itself.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    /// Reports of the stages that actually executed, in order. A run
    /// served from the cache records only parse and the
    /// [`Stage::CacheHit`] pseudo-stage.
    pub stages: Vec<StageReport>,
    /// Synthesis-cache hits charged to this run (0 or 1).
    pub cache_hits: u64,
    /// Synthesis-cache misses charged to this run (0 or 1; 0 when no
    /// cache was attached).
    pub cache_misses: u64,
    /// Expansion candidates of this run whose synthesis was served from
    /// the shared cache (lattice siblings previously synthesized —
    /// standalone or by another run against the same
    /// [`SynthCache`](crate::SynthCache)). Always 0 for complete
    /// specifications.
    pub shared_candidate_hits: u64,
    /// Places removed by structural pre-reduction before the state
    /// graph was built (0 when the pass was skipped — partial
    /// specifications and pre-built graphs — or found nothing).
    pub prereduce_places_removed: u64,
    /// Transitions (series dummies) removed by structural pre-reduction.
    pub prereduce_transitions_removed: u64,
    /// Lattice-realization restriction products served from the
    /// shared-prefix trie instead of being recomputed. Always 0 for
    /// complete specifications (no lattice is realized).
    pub lattice_prefix_hits: u64,
}

impl Diagnostics {
    /// The report of `stage`, if it executed.
    pub fn stage(&self, stage: Stage) -> Option<&StageReport> {
        self.stages.iter().find(|r| r.stage == stage)
    }

    /// Total wall time across all recorded stages.
    pub fn total_wall(&self) -> Duration {
        self.stages.iter().map(|r| r.wall).sum()
    }

    /// One line per stage, e.g. for CLI reporting.
    pub fn summary(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for r in &self.stages {
            let _ = write!(out, "{:<10} {:>9.1?}", r.stage.to_string(), r.wall);
            if let Some(n) = r.states {
                let _ = write!(out, "  states {n}");
            }
            if let Some(n) = r.arcs {
                let _ = write!(out, "  arcs {n}");
            }
            if let Some(n) = r.peak_frontier {
                let _ = write!(out, "  frontier {n}");
            }
            if let Some(n) = r.candidates {
                let _ = write!(out, "  candidates {n}");
            }
            if let Some(n) = r.pruned {
                let _ = write!(out, "  pruned {n}");
            }
            out.push('\n');
        }
        if self.cache_hits + self.cache_misses > 0 {
            let _ = writeln!(
                out,
                "cache      {} hit{}, {} miss{}",
                self.cache_hits,
                if self.cache_hits == 1 { "" } else { "s" },
                self.cache_misses,
                if self.cache_misses == 1 { "" } else { "es" },
            );
        }
        if self.shared_candidate_hits > 0 {
            let _ = writeln!(
                out,
                "shared     {} candidate synthesis hit{}",
                self.shared_candidate_hits,
                if self.shared_candidate_hits == 1 {
                    ""
                } else {
                    "s"
                },
            );
        }
        if self.prereduce_places_removed + self.prereduce_transitions_removed > 0 {
            let _ = writeln!(
                out,
                "prereduce  {} places, {} transitions removed",
                self.prereduce_places_removed, self.prereduce_transitions_removed,
            );
        }
        if self.lattice_prefix_hits > 0 {
            let _ = writeln!(
                out,
                "prefix     {} lattice restriction products reused",
                self.lattice_prefix_hits,
            );
        }
        out
    }

    pub(crate) fn record(
        &mut self,
        stage: Stage,
        wall: Duration,
        sg: Option<SgCounts>,
        candidates: Option<usize>,
        pruned: Option<usize>,
    ) {
        let sg = sg.unwrap_or_default();
        self.stages.push(StageReport {
            stage,
            wall,
            states: sg.states,
            arcs: sg.arcs,
            peak_frontier: sg.peak_frontier,
            candidates,
            pruned,
        });
    }
}

/// State-graph counters one stage reports: size of the (primary
/// candidate's) graph after the stage, plus the build's peak frontier
/// when the stage explored a net.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SgCounts {
    pub states: Option<usize>,
    pub arcs: Option<usize>,
    pub peak_frontier: Option<usize>,
}

impl SgCounts {
    /// Counters of an existing graph (no exploration happened).
    pub fn of(sg: &reshuffle_sg::StateGraph) -> SgCounts {
        SgCounts {
            states: Some(sg.num_states()),
            arcs: Some(sg.num_arcs()),
            peak_frontier: None,
        }
    }

    /// Counters of a fresh build, including its peak frontier.
    pub fn of_build(stats: &reshuffle_sg::BuildStats) -> SgCounts {
        SgCounts {
            states: Some(stats.states),
            arcs: Some(stats.arcs),
            peak_frontier: Some(stats.peak_frontier),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_and_lookup() {
        let mut d = Diagnostics::default();
        d.record(Stage::Parse, Duration::from_micros(10), None, None, None);
        d.record(
            Stage::Expand,
            Duration::from_micros(30),
            Some(SgCounts {
                states: Some(6),
                arcs: Some(9),
                peak_frontier: Some(2),
            }),
            Some(4),
            Some(2),
        );
        let expand = d.stage(Stage::Expand).unwrap();
        assert_eq!(expand.candidates, Some(4));
        assert_eq!(expand.states, Some(6));
        assert_eq!(expand.arcs, Some(9));
        assert_eq!(expand.peak_frontier, Some(2));
        assert!(d.stage(Stage::Reduce).is_none());
        assert_eq!(d.total_wall(), Duration::from_micros(40));
        let s = d.summary();
        assert!(s.contains("expand"), "{s}");
        assert!(s.contains("candidates 4"), "{s}");
        assert!(s.contains("arcs 9"), "{s}");
        assert!(s.contains("frontier 2"), "{s}");
        assert!(!s.contains("cache"), "{s}");
        d.cache_hits = 1;
        assert!(d.summary().contains("cache      1 hit, 0 misses"));
        d.shared_candidate_hits = 2;
        assert!(d.summary().contains("2 candidate synthesis hits"));
    }
}
