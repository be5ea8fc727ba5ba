//! Parallel reachability: the sharded-frontier state-graph build on
//! the scaled synthetic corpus (`examples::scaled_pipeline`), 1 thread
//! vs the machine's available parallelism.
//!
//! The top size exceeds 10^5 states, where the build is dominated by
//! frontier expansion and the sharded workers pay off; the output also
//! asserts that both thread counts produce fingerprint-identical
//! graphs (the determinism guarantee the golden corpus relies on).
//!
//! The measurement loop keeps the large builds to a few runs each —
//! calibrating an iteration count against a second-long build would
//! multiply the bench's runtime for no extra signal.
//!
//! A second section reports what *structural pre-reduction* buys before
//! the build ever runs: the dummy-padded scaled variant's raw state
//! space (`2*4^n + 2`, explored for real) against the pre-reduced net's
//! (`2*3^n + 2`), with the places/transitions the pass removed.

use std::time::{Duration, Instant};

use reshuffle_bench::{examples, smoke_mode};
use reshuffle_petri::{parse_g, prereduce, ReachabilityGraph};
use reshuffle_sg::{build_state_graph_stats, BuildOptions};

/// Builds once at the given thread count, returning (wall, fingerprint,
/// states, peak frontier).
fn build_once(stg: &reshuffle_petri::Stg, threads: usize) -> (Duration, u64, usize, usize) {
    let opts = BuildOptions {
        threads,
        ..Default::default()
    };
    let t = Instant::now();
    let (sg, stats) = build_state_graph_stats(stg, &opts).unwrap();
    (
        t.elapsed(),
        sg.fingerprint(),
        stats.states,
        stats.peak_frontier,
    )
}

/// Best-of-`runs` wall time.
fn best(stg: &reshuffle_petri::Stg, threads: usize, runs: usize) -> (Duration, u64, usize, usize) {
    (0..runs)
        .map(|_| build_once(stg, threads))
        .min_by_key(|&(wall, _, _, _)| wall)
        .expect("at least one run")
}

fn main() {
    let (sizes, runs): (&[usize], usize) = if smoke_mode() {
        (&[4], 1)
    } else {
        (&[6, 9, 11], 2)
    };
    let auto = reshuffle_petri::sharded::effective_threads(0);
    println!("par_reach: 1 thread vs {auto} (available parallelism); best of {runs}");
    for &n in sizes {
        let stg = parse_g(&examples::scaled_pipeline(n)).unwrap();
        let (serial, fp1, states, frontier) = best(&stg, 1, runs);
        let (parallel, fp_auto, _, _) = best(&stg, 0, runs);
        assert_eq!(
            fp1, fp_auto,
            "thread count changed the graph at n={n} — determinism broken"
        );
        let speedup = serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
        println!(
            "scaled_pipeline({n:>2})  {states:>7} states  peak frontier {frontier:>6}  t1 {serial:>10.2?}  t{auto} {parallel:>10.2?}  speedup {speedup:>5.2}x",
        );
    }

    // Pre-reduction section: raw exploration of the dummy-padded net vs
    // the same net after prereduce. The padded sizes stay one step
    // below the timing sizes — its raw space is 4^n, not 3^n.
    let pre_sizes: &[usize] = if smoke_mode() { &[3] } else { &[5, 7, 9] };
    println!("prereduce: dummy-padded scaled variant, raw vs pre-reduced exploration");
    for &n in pre_sizes {
        let padded = parse_g(&examples::scaled_pipeline_padded(n)).unwrap();
        let t_raw = Instant::now();
        let raw = ReachabilityGraph::explore_default(padded.net(), &padded.initial_marking())
            .unwrap()
            .len();
        let raw_wall = t_raw.elapsed();
        let mut reduced = padded.clone();
        let t_red = Instant::now();
        let stats = prereduce(&mut reduced).unwrap();
        let post = ReachabilityGraph::explore_default(reduced.net(), &reduced.initial_marking())
            .unwrap()
            .len();
        let red_wall = t_red.elapsed();
        assert_eq!(raw, examples::scaled_pipeline_padded_states(n), "n={n}");
        assert_eq!(post, examples::scaled_pipeline_states(n), "n={n}");
        println!(
            "scaled_padded({n:>2})    {raw:>7} -> {post:>7} states  (-{} places, -{} transitions)  raw {raw_wall:>9.2?}  reduced {red_wall:>9.2?}",
            stats.places_removed, stats.transitions_removed,
        );
    }
}
