//! Benchmark harness for the `reshuffle` workspace.
//!
//! The container this workspace builds in has no network access, so the
//! harness is hand-rolled on [`std::time::Instant`] instead of pulling
//! in `criterion`: [`run_with`] auto-calibrates an iteration count to a
//! target measurement window and reports min/median/mean per-iteration
//! times. Benches are registered with `harness = false` so
//! `cargo bench` drives plain `fn main()` runners directly.
//!
//! [`examples`] holds the `.g` sources the benches and the `tables`
//! binary share; [`tables`] collects and renders the Tables 1/2
//! report (text, and machine-readable JSON via
//! [`reshuffle::obs::json`]).

#![warn(missing_docs)]

use std::hint::black_box;
use std::time::{Duration, Instant};

pub mod examples;
pub mod tables;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (shown in reports).
    pub name: String,
    /// Iterations per sample.
    pub iters_per_sample: u32,
    /// Per-iteration time of the fastest sample.
    pub min: Duration,
    /// Per-iteration time of the median sample.
    pub median: Duration,
    /// Per-iteration mean over all samples.
    pub mean: Duration,
    /// Number of samples taken.
    pub samples: usize,
}

impl Measurement {
    /// Formats the measurement as a one-line report.
    pub fn report(&self) -> String {
        format!(
            "{:<28} {:>12?} min {:>12?} med {:>12?} mean  ({} x {} iters)",
            self.name, self.min, self.median, self.mean, self.samples, self.iters_per_sample
        )
    }
}

/// Tuning for [`run_with`].
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Target duration of one sample (controls calibration).
    pub sample_target: Duration,
    /// Number of samples to take.
    pub samples: usize,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            sample_target: Duration::from_millis(20),
            samples: 11,
        }
    }
}

impl BenchOptions {
    /// A tiny sample budget for CI smoke runs.
    pub fn smoke() -> BenchOptions {
        BenchOptions {
            sample_target: Duration::from_micros(100),
            samples: 2,
        }
    }

    /// [`BenchOptions::smoke`] when [`smoke_mode`] is set, the default
    /// measurement budget otherwise. Every bench main starts here.
    pub fn smoke_or_default() -> BenchOptions {
        if smoke_mode() {
            BenchOptions::smoke()
        } else {
            BenchOptions::default()
        }
    }
}

/// Measures `f`, auto-calibrating the iteration count so each sample
/// runs for roughly `opts.sample_target`.
///
/// The closure's result is passed through [`black_box`] so the work is
/// not optimized away; return the value you computed.
pub fn run_with<T, F: FnMut() -> T>(name: &str, opts: &BenchOptions, mut f: F) -> Measurement {
    // Calibrate: double the iteration count until a sample is long enough.
    let mut iters: u32 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = t.elapsed();
        if elapsed >= opts.sample_target || iters >= 1 << 20 {
            break;
        }
        // Jump close to the target once we have a usable estimate.
        iters = if elapsed.is_zero() {
            iters * 2
        } else {
            let scale = opts.sample_target.as_secs_f64() / elapsed.as_secs_f64();
            (iters as f64 * scale.clamp(1.5, 16.0)).ceil() as u32
        };
    }

    let mut per_iter: Vec<Duration> = (0..opts.samples.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed() / iters
        })
        .collect();
    per_iter.sort();
    let min = per_iter[0];
    let median = per_iter[per_iter.len() / 2];
    let mean = per_iter.iter().sum::<Duration>() / per_iter.len() as u32;
    Measurement {
        name: name.to_string(),
        iters_per_sample: iters,
        min,
        median,
        mean,
        samples: per_iter.len(),
    }
}

/// [`run_with`], printing the report line to stdout.
pub fn report<T, F: FnMut() -> T>(name: &str, opts: &BenchOptions, f: F) -> Measurement {
    let m = run_with(name, opts, f);
    println!("{}", m.report());
    m
}

/// True when the process should only check that benches build and can
/// start (CI smoke mode): set `RESHUFFLE_BENCH_SMOKE=1`.
pub fn smoke_mode() -> bool {
    std::env::var_os("RESHUFFLE_BENCH_SMOKE").is_some_and(|v| v == "1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_terminates_and_reports() {
        let opts = BenchOptions {
            sample_target: Duration::from_micros(200),
            samples: 3,
        };
        let m = run_with("spin", &opts, || (0..100u64).sum::<u64>());
        assert_eq!(m.samples, 3);
        assert!(m.iters_per_sample >= 1);
        assert!(m.report().contains("spin"));
    }
}
