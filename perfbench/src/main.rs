//! `perfbench`: the end-to-end and per-layer benchmark of the reshuffle
//! synthesis pipeline and service. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <complete|partial|serve> --seed N --seconds S --trace <0|1>
//! perfbench --workload W --seed N --seconds S --trace T --repeat K
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--repeat K` runs the workload K times, in fresh processes with seeds
//! N..N+K, and prints the median and quartiles of every metric instead.

mod gen;
mod layers;
mod library;
mod measure;
mod serve;
mod trace;

use std::process::{Command, ExitCode};

use measure::quartiles;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
    cold: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30,
        trace: false,
        repeat: None,
        cold: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--cold" => {
                args.workload = value()?;
                args.cold = true;
            }
            "--seed" => args.seed = num(value()?)?,
            "--seconds" => args.seconds = num(value()?)?,
            "--trace" => args.trace = num(value()?)? != 0,
            "--repeat" => args.repeat = Some(num(value()?)? as usize),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["complete", "partial", "serve"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be complete, partial or serve, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Program knobs stay at their defaults: an inherited thread count or
    // trace level must not change what is measured.
    std::env::remove_var("RESHUFFLE_THREADS");
    std::env::remove_var("RESHUFFLE_TRACE");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let code = if args.cold {
        library::cold(&args.workload, args.seed)
    } else if let Some(k) = args.repeat {
        repeat(&args, k)
    } else if args.workload == "serve" {
        serve::run(args.seed, args.seconds, args.trace)
    } else {
        library::run(&args.workload, args.seed, args.seconds, args.trace)
    };
    ExitCode::from(code as u8)
}

/// The steadiness report: K runs in fresh processes, then the median,
/// quartiles and spread (quartile distance over median) of every metric,
/// raw beside normalized for the compute-bound timings.
fn repeat(args: &Args, k: usize) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut push = |name: &str, unit: &str, v: f64| match series.iter_mut().find(|s| s.0 == name) {
        Some(s) => s.2.push(v),
        None => series.push((name.to_string(), unit.to_string(), vec![v])),
    };
    for i in 0..k as u64 {
        let seed = args.seed + i;
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("run {seed} failed: {}", String::from_utf8_lossy(&o.stderr));
                return 1;
            }
            Err(e) => {
                eprintln!("run {seed}: {e}");
                return 1;
            }
        };
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let parts: Vec<&str> = line.split(' ').collect();
            match parts.as_slice() {
                ["metric", name, v, unit] => push(name, unit, v.parse().unwrap_or(f64::NAN)),
                ["raw", name, v] => push(&format!("raw:{name}"), "", v.parse().unwrap_or(f64::NAN)),
                _ => {}
            }
        }
        eprintln!("run {} of {k} (seed {seed}) done", i + 1);
    }
    println!(
        "workload {} over {k} runs (seeds {}..{}), {} s each:",
        args.workload,
        args.seed,
        args.seed + k as u64 - 1,
        args.seconds
    );
    println!(
        "  {:<34} {:>12} {:>12} {:>12} {:>8}   raw median (spread)",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, unit, values) in series.iter().filter(|s| !s.0.starts_with("raw:")) {
        let (q1, med, q3) = quartiles(values);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        let raw = series
            .iter()
            .find(|s| s.0 == format!("raw:{name}"))
            .map(|s| {
                let (r1, rm, r3) = quartiles(&s.2);
                format!("{rm:.4} ({:.1}%)", (r3 - r1) / rm.abs() * 100.0)
            })
            .unwrap_or_default();
        println!(
            "  {:<34} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>7.1}%   {raw}",
            format!("{name} [{unit}]"),
            spread * 100.0
        );
    }
    if let Some(s) = series.iter().find(|s| s.0 == "raw:ref_kernel_ms") {
        let (q1, med, q3) = quartiles(&s.2);
        println!("  reference kernel raw ms: q1 {q1:.3}, median {med:.3}, q3 {q3:.3}");
    }
    0
}
