//! Timing instruments: the reference kernel that normalizes
//! compute-bound timings, percentiles, peak memory and the result line.
//!
//! # Why normalize
//!
//! On a small shared host, memory- and allocation-heavy work slows by
//! 1.6–1.8× for seconds to a minute at a time while an ALU-only loop
//! barely moves, and the slowdown hits every layer at once. Dividing
//! each operation's time by the time of a fixed, allocation-heavy
//! reference kernel run in the same process just before and just after
//! the operation cancels most of that interference. The kernel is a
//! std-`HashMap` insert + lookup over a fresh map, so it pays the same
//! allocation and page-fault costs the program does; an allocation-free
//! kernel tracks the interference much worse.
//!
//! A normalized time is reported in milliseconds scaled by the fixed
//! [`REF_NOMINAL_MS`] — never by a value re-measured per run — so
//! `normalized_ms = raw_ms / ref_ms * REF_NOMINAL_MS`. The kernel's own
//! raw time is printed on every run, so a change that slows the kernel
//! (say, by leaving threads busy after an operation) shows up instead
//! of silently making normalized numbers look better.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The nominal time of one reference-kernel call: the unit normalized
/// timings are scaled back into milliseconds with. Fixed, never
/// measured.
pub const REF_NOMINAL_MS: f64 = 10.0;

/// Keys per kernel call: 11-14 ms on a 2-vCPU x86-64 host. The table
/// (131 072 buckets, over 2 MB) is past the allocator's mmap threshold,
/// so every call maps and faults fresh pages, as the program's large
/// state graphs do.
const REF_KEYS: u64 = 80_000;

/// One call of the reference kernel: build a fresh `HashMap` of
/// `REF_KEYS` pseudo-random keys (growing it from empty, so it
/// allocates and faults pages like the program), then look every key
/// up. Returns its raw wall time.
pub fn ref_kernel() -> Duration {
    let t = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..REF_KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x, i);
    }
    let mut sum = 0u64;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..REF_KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum = sum.wrapping_add(*map.get(&x).expect("every key was inserted"));
    }
    black_box(sum);
    drop(black_box(map));
    t.elapsed()
}

/// Kernel calls on each side of an operation whose median normalizes
/// it.
const REF_WINDOW: usize = 16;

/// Interleaves operations with reference-kernel calls, one call before
/// the first operation and one after every operation, and normalizes
/// each operation by the median of the [`REF_WINDOW`] calls on either
/// side of it. The median of the neighbourhood follows interference
/// episodes (seconds to a minute long) while ignoring the jitter of any
/// single 10 ms kernel call, which is as large as an operation's own:
/// dividing by just the two adjacent calls measured noisier than not
/// normalizing at all on the `partial` workload.
pub struct Normalizer {
    /// Every kernel call's raw time, in ms.
    refs: Vec<f64>,
    /// Every operation's raw time, in ms.
    raws: Vec<f64>,
}

impl Normalizer {
    pub fn new() -> Normalizer {
        Normalizer {
            refs: vec![ms(ref_kernel())],
            raws: Vec::new(),
        }
    }

    /// Times `op`, then runs the next kernel call; returns the result
    /// and the raw time in ms. Operation `i` sits between kernel calls
    /// `i` and `i + 1`.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = op();
        let raw_ms = ms(t.elapsed());
        self.raws.push(raw_ms);
        self.refs.push(ms(ref_kernel()));
        (out, raw_ms)
    }

    /// Every operation's normalized time, in ms scaled by
    /// [`REF_NOMINAL_MS`].
    pub fn normalized(&self) -> Vec<f64> {
        self.raws
            .iter()
            .enumerate()
            .map(|(i, raw)| {
                let lo = (i + 1).saturating_sub(REF_WINDOW);
                let hi = (i + 1 + REF_WINDOW).min(self.refs.len());
                let mut window = self.refs[lo..hi].to_vec();
                raw / nearest_rank(&mut window, 0.5) * REF_NOMINAL_MS
            })
            .collect()
    }

    /// Median raw kernel time of the run, in milliseconds.
    pub fn ref_median_ms(&self) -> f64 {
        nearest_rank(&mut self.refs.clone(), 0.5)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values`: an
/// observed value, never an interpolation between two inputs of
/// different size classes. Sorts in place.
pub fn nearest_rank(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median and quartiles, as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them: used by the steadiness report so
/// its spreads match the ones the benchmark's bounds are judged by.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |j: usize| {
        // Position j*(n+1)/4, 1-based, clamped to the data.
        let pos = j as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = pos - pos.floor();
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Resets this process's peak resident set to its current resident set
/// (Linux `clear_refs` 5), so the next [`peak_rss_mb`] reads the peak
/// since now.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints one `metric <name> <value> <unit>` line per metric (the
    /// steadiness report reads these), then the result object as the
    /// last line of standard output.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        );
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
