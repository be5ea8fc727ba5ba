//! Shared helpers for the root integration suites.

use reshuffle::{PipelineError, Synthesis};
use reshuffle_timing::{simulate, DelayModel, SimOptions};

/// Renders one synthesis outcome as a golden line — the single pin
/// format of the golden-corpus suite (`tests/pipeline.rs`) and the
/// row the builder-equivalence suite (`tests/builder.rs`) compares
/// between `run()` and the staged chain. The expand modes pin the chosen
/// ordering, literal count and cycle time — the acceptance artifacts
/// of the Section 3 stage.
pub fn golden_line(name: &str, mode: &str, result: &Result<Synthesis, PipelineError>) -> String {
    match result {
        Err(e) => format!("{name:<8} {mode:<7} error={e}"),
        Ok(s) => {
            let mut signals: Vec<&str> = s
                .netlist
                .signals()
                .iter()
                .map(|s| s.name.as_str())
                .collect();
            signals.sort_unstable();
            let delays = DelayModel::uniform(&s.stg, 2.0, 1.0);
            let cycle = simulate(&s.stg, &delays, &SimOptions::default())
                .map(|r| format!("{:.1}", r.period))
                .unwrap_or_else(|e| format!("?{e}"));
            let mut line = format!(
                "{name:<8} {mode:<7} lits={} cycle={cycle} signals=[{}] inserted=[{}]",
                reshuffle_synth::literal_estimate(&s.sg),
                signals.join(","),
                s.inserted.join(","),
            );
            if mode == "reduce" || mode == "exp+red" {
                line.push_str(&format!(
                    " moves=[{}]",
                    s.move_labels().collect::<Vec<_>>().join(",")
                ));
            }
            if mode == "expand" || mode == "exp+red" {
                line.push_str(&format!(" choices=[{}]", s.expansion.join(",")));
            }
            line
        }
    }
}
