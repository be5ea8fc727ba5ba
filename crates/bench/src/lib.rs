//! Reports and benches for the `reshuffle` workspace.
//!
//! [`examples`] holds the `.g` sources the `reach` bench, the
//! `tables` binary and the test suites share; [`tables`] collects and
//! renders the Tables 1/2 report (text, and machine-readable JSON via
//! [`reshuffle::obs::json`]). End-to-end and per-layer timings come
//! from the separate `perfbench` package.
//!
//! The `reach` bench is registered with `harness = false` (the
//! workspace takes no external dependencies, so no `criterion`) and
//! times the state-graph build with its own loop; [`smoke_mode`] cuts
//! it down to a start-up check.

#![warn(missing_docs)]

pub mod examples;
pub mod tables;

/// True when the process should only check that benches build and can
/// start (CI smoke mode): set `RESHUFFLE_BENCH_SMOKE=1`.
pub fn smoke_mode() -> bool {
    std::env::var_os("RESHUFFLE_BENCH_SMOKE").is_some_and(|v| v == "1")
}
