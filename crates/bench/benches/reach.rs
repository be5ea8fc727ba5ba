//! Reachability: the state-graph build on the scaled synthetic corpus
//! (`examples::scaled_pipeline`), reporting build time, states and the
//! peak breadth-first frontier per size.
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
use reshuffle_sg::{build_state_graph_stats, BuildOptions, BuildStats};

/// Best-of-`runs` build: (wall, stats).
fn best(stg: &reshuffle_petri::Stg, runs: usize) -> (Duration, BuildStats) {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            let (_, stats) = build_state_graph_stats(stg, &BuildOptions::default()).unwrap();
            (t.elapsed(), stats)
        })
        .min_by_key(|&(wall, _)| wall)
        .expect("at least one run")
}

fn main() {
    let (sizes, runs): (&[usize], usize) = if smoke_mode() {
        (&[4], 1)
    } else {
        (&[6, 9, 11], 2)
    };
    println!("reach: state-graph build, best of {runs}");
    for &n in sizes {
        let stg = parse_g(&examples::scaled_pipeline(n)).unwrap();
        let (wall, stats) = best(&stg, runs);
        assert_eq!(stats.states, examples::scaled_pipeline_states(n), "n={n}");
        println!(
            "scaled_pipeline({n:>2})  {:>7} states  peak frontier {:>6}  build {wall:>10.2?}",
            stats.states, stats.peak_frontier,
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
