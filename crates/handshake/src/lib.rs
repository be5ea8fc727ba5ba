//! Handshake expansion of partially specified STGs (DAC 1999, Sec. 3).
//!
//! A *partial specification* leaves the ordering between some handshake
//! phases open: channels declared with `.handshake req ack` appear in
//! the graph as two-phase toggle events (`req~`, `ack~`), and the
//! position of the four-phase return-to-zero edges (`req-`, `ack-`) is
//! not committed. Handshake expansion:
//!
//! 1. rewrites every channel to the four-phase protocol with maximally
//!    concurrent return-to-zero edges ([`expand`](crate) internals, via
//!    [`reshuffle_petri::structural::expand_channel_four_phase`]);
//! 2. enumerates the *reshuffling lattice* — per return-to-zero
//!    transition, the subset of concurrent anchor events it is ordered
//!    after, from the *eager* extreme (empty subsets: RTZ fires as soon
//!    as the protocol allows) to the *lazy* extreme (full subsets: RTZ
//!    deferred behind everything);
//! 3. prunes points whose serialized state graph loses 1-safety,
//!    liveness or speed independence, collapses points that imply the
//!    same graph, and drops mirror images under signal automorphisms
//!    (symmetric channels are dominated).
//!
//! The surviving [`Reshuffling`]s are complete STGs; the `reshuffle`
//! facade synthesizes each one and picks the best by (state signals
//! inserted, literal estimate, timed cycle).

#![warn(missing_docs)]

mod expand;
mod lattice;
mod prune;

use std::collections::hash_map::{Entry, HashMap};
use std::collections::HashSet;
use std::fmt;

use reshuffle_petri::structural::signal_automorphisms;
use reshuffle_petri::Stg;
use reshuffle_sg::props::live_and_speed_independent;
use reshuffle_sg::{SgError, StateGraph};

/// Errors from handshake expansion.
#[derive(Debug, Clone, PartialEq)]
pub enum HandshakeError {
    /// The specification is not partial (nothing to expand).
    NotPartial,
    /// A partial specification reached a synthesis stage that requires
    /// a complete STG; run handshake expansion first (the facade's
    /// `expand` stage).
    NotExpanded,
    /// A toggle event belongs to no declared `.handshake` channel.
    UnboundToggle {
        /// The signal whose toggle is unbound.
        signal: String,
    },
    /// A declared channel cannot be expanded (wrong event shape).
    MalformedChannel {
        /// The channel, as `req/ack`.
        channel: String,
        /// What was wrong with it.
        message: String,
    },
    /// Every enumerated reshuffling was pruned (no live, 1-safe,
    /// speed-independent refinement exists within the search bounds).
    NoFeasibleReshuffling,
    /// The base expansion has no state graph (unsafe or inconsistent).
    Sg(SgError),
}

impl fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandshakeError::NotPartial => {
                write!(f, "specification is complete; nothing to expand")
            }
            HandshakeError::NotExpanded => write!(
                f,
                "specification is partial; run handshake expansion before synthesis"
            ),
            HandshakeError::UnboundToggle { signal } => write!(
                f,
                "toggle events of `{signal}` belong to no declared .handshake channel"
            ),
            HandshakeError::MalformedChannel { channel, message } => {
                write!(f, "channel {channel}: {message}")
            }
            HandshakeError::NoFeasibleReshuffling => write!(
                f,
                "no reshuffling survives the liveness/safety/speed-independence gates"
            ),
            HandshakeError::Sg(e) => write!(f, "handshake expansion: {e}"),
        }
    }
}

impl std::error::Error for HandshakeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HandshakeError::Sg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SgError> for HandshakeError {
    fn from(e: SgError) -> Self {
        HandshakeError::Sg(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, HandshakeError>;

/// Limits on the reshuffling enumeration.
#[derive(Debug, Clone)]
pub struct ExpansionOptions {
    /// Maximum number of reshufflings to return. The eager and lazy
    /// extremes are realized first, so any budget of at least 2 keeps
    /// both ends of the lattice.
    pub max_reshufflings: usize,
}

impl Default for ExpansionOptions {
    fn default() -> Self {
        ExpansionOptions {
            max_reshufflings: 64,
        }
    }
}

/// Counters from one enumeration of the reshuffling lattice — what the
/// facade's per-stage diagnostics report for the expansion stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpansionStats {
    /// Lattice points considered (cut short by the enumeration budget).
    pub points: usize,
    /// Points pruned because serialization lost 1-safety, liveness or
    /// speed independence.
    pub infeasible: usize,
    /// Points collapsed because their implied state graph was already
    /// realized by an earlier point.
    pub deduped_graphs: usize,
    /// Points dropped as mirror images of an earlier point under a
    /// signal automorphism (symmetric channels).
    pub deduped_symmetry: usize,
    /// Restriction products served from the shared-prefix cache instead
    /// of being recomputed (lattice points agreeing on a constraint
    /// prefix share the intermediate state graph).
    pub prefix_hits: u64,
    /// Restriction products actually executed during realization. A
    /// per-point chained realization would execute
    /// `restriction_products + prefix_hits`.
    pub restriction_products: u64,
}

impl ExpansionStats {
    /// Total points discarded by pruning and deduplication.
    pub fn pruned(&self) -> usize {
        self.infeasible + self.deduped_graphs + self.deduped_symmetry
    }
}

/// The result of [`expand_handshakes_stats`]: the surviving
/// reshufflings together with the enumeration counters.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// Surviving reshufflings, eager extreme first, lazy extreme last.
    pub reshufflings: Vec<Reshuffling>,
    /// What the enumeration considered and discarded.
    pub stats: ExpansionStats,
}

/// One complete refinement of a partial specification.
#[derive(Debug, Clone)]
pub struct Reshuffling {
    /// The expanded, fully specified STG.
    pub stg: Stg,
    /// Its state graph (derived incrementally from the base expansion).
    pub sg: StateGraph,
    /// The ordering choices made, as `anchor -> rtz` strings (empty for
    /// the eager extreme).
    pub choices: Vec<String>,
}

/// Enumerates the legal handshake reshufflings of a partial
/// specification, eager extreme first, lazy extreme last.
///
/// # Worked example
///
/// A partial request/acknowledge controller: the `Req`/`Ack` channel is
/// declared open, and the only committed behaviour is that a `Go` pulse
/// follows each acknowledged request. Expansion enumerates where the
/// return-to-zero edges `Req-`/`Ack-` may sit relative to the pulse —
/// from eager (concurrent with `Go+`/`Go-`) to lazy (after `Go-`):
///
/// ```
/// use reshuffle_handshake::{expand_handshakes, ExpansionOptions};
/// use reshuffle_petri::parse_g;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let partial = parse_g(
///     ".model pcreq\n.inputs Ack\n.outputs Req Go\n.handshake Req Ack\n\
///      .graph\nReq~ Ack~\nAck~ Go+\nGo+ Go-\nGo- Req~\n\
///      .marking { <Go-,Req~> }\n.end\n",
/// )?;
/// assert!(partial.is_partial());
///
/// let reshufflings = expand_handshakes(&partial, &ExpansionOptions::default())?;
/// assert!(reshufflings.len() >= 2);
/// // The eager extreme commits no extra ordering ...
/// assert!(reshufflings[0].choices.is_empty());
/// // ... the lazy extreme defers every return-to-zero edge.
/// let lazy = reshufflings.last().unwrap();
/// assert!(lazy.choices.iter().any(|c| c == "Go- -> Req-"));
/// // Every reshuffling is a complete STG, ready for synthesis.
/// assert!(reshufflings.iter().all(|r| !r.stg.is_partial()));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`HandshakeError::NotPartial`] for complete inputs;
/// * [`HandshakeError::UnboundToggle`] / [`HandshakeError::MalformedChannel`]
///   for ill-formed partial syntax;
/// * [`HandshakeError::Sg`] if the base expansion has no state graph;
/// * [`HandshakeError::NoFeasibleReshuffling`] if pruning rejects every
///   lattice point.
pub fn expand_handshakes(stg: &Stg, opts: &ExpansionOptions) -> Result<Vec<Reshuffling>> {
    expand_handshakes_stats(stg, opts).map(|e| e.reshufflings)
}

/// [`expand_handshakes`], also reporting the enumeration counters
/// (points considered, infeasible prunes, graph and symmetry dedups)
/// that the facade surfaces as expansion-stage diagnostics.
///
/// # Errors
///
/// See [`expand_handshakes`].
pub fn expand_handshakes_stats(stg: &Stg, opts: &ExpansionOptions) -> Result<Expansion> {
    if !stg.is_partial() {
        return Err(HandshakeError::NotPartial);
    }
    let base = expand::four_phase_base(stg)?;
    let anchors = lattice::anchors(&base);
    let points = lattice::enumerate_points(&anchors);
    let autos = signal_automorphisms(&base.stg);

    let mut stats = ExpansionStats::default();
    let mut out: Vec<Reshuffling> = Vec::new();
    // Gate verdicts by graph fingerprint: each distinct graph is gated
    // at most once.
    let mut verdicts: HashMap<u64, bool> = HashMap::new();
    // Choice keys of the kept points.
    let mut seen_keys: HashSet<String> = HashSet::new();
    let mut prefixes = prune::PrefixCache::default();
    for point in &points {
        if out.len() >= opts.max_reshufflings {
            break;
        }
        stats.points += 1;
        let constraints = point.constraints(&base.rtz, &anchors);
        let Some(sg) = prune::realize(&base, &constraints, &mut prefixes) else {
            stats.infeasible += 1;
            continue;
        };
        let (live, key) = match verdicts.entry(sg.fingerprint()) {
            Entry::Occupied(v) => (*v.get(), None),
            Entry::Vacant(v) => {
                // A new graph whose choice key was kept is a mirror image
                // of a kept point: the constraint sets differ by a
                // composition of STG automorphisms, so the graphs are
                // isomorphic and it passes ungated.
                let key = prune::canonical_choice_key(&base.stg, &constraints, &autos);
                let mirror = seen_keys.contains(&key);
                debug_assert!(
                    !mirror || live_and_speed_independent(&sg),
                    "a mirror image of a kept point fails the gate"
                );
                let live = mirror || live_and_speed_independent(&sg);
                (*v.insert(live), Some(key))
            }
        };
        if !live {
            stats.infeasible += 1;
            continue;
        }
        let Some(key) = key else {
            stats.deduped_graphs += 1;
            continue; // implied orderings: same graph as an earlier point
        };
        if !seen_keys.insert(key) {
            stats.deduped_symmetry += 1;
            continue; // mirror image of an earlier point
        }
        out.push(prune::reshuffling(&base, &constraints, sg));
    }
    stats.prefix_hits = prefixes.hits;
    stats.restriction_products = prefixes.products;
    if out.is_empty() {
        return Err(HandshakeError::NoFeasibleReshuffling);
    }
    // Present eager -> lazy: fewer ordering commitments first.
    out.sort_by(|a, b| (a.choices.len(), &a.choices).cmp(&(b.choices.len(), &b.choices)));
    Ok(Expansion {
        reshufflings: out,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reshuffle_petri::parse_g;
    use reshuffle_sg::props::speed_independence;
    use reshuffle_sg::{build_state_graph, conc::concurrent_pairs};

    const COMPLETE_G: &str = ".model t\n.inputs a\n.outputs b\n.graph\n\
         a+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n";

    const PULSE_G: &str = ".model m\n.inputs a\n.outputs r x\n.handshake r a\n.graph\n\
         r~ a~\na~ x+\nx+ x-\nx- r~\n.marking { <x-,r~> }\n.end\n";

    /// Two symmetric channels forked by `go`.
    const SYMMETRIC_G: &str = ".model hspar\n.inputs go a1 a2\n.outputs r1 r2\n\
         .handshake r1 a1\n.handshake r2 a2\n.graph\n\
         go+ r1~ r2~\nr1~ a1~\nr2~ a2~\na1~ go-\na2~ go-\ngo- go+\n\
         .marking { <go-,go+> }\n.end\n";

    #[test]
    fn complete_specs_are_not_partial() {
        let stg = parse_g(COMPLETE_G).unwrap();
        let err = expand_handshakes(&stg, &ExpansionOptions::default()).unwrap_err();
        assert_eq!(err, HandshakeError::NotPartial);
        assert!(err.to_string().contains("complete"));
    }

    #[test]
    fn bare_channel_has_one_reshuffling() {
        // Nothing runs beside the channel: the lattice is a point.
        let stg = parse_g(
            ".model hs\n.inputs a\n.outputs r\n.handshake r a\n.graph\n\
             r~ a~\na~ r~\n.marking { <a~,r~> }\n.end\n",
        )
        .unwrap();
        let rs = expand_handshakes(&stg, &ExpansionOptions::default()).unwrap();
        assert_eq!(rs.len(), 1);
        assert!(rs[0].choices.is_empty());
        assert_eq!(rs[0].sg.num_states(), 4);
    }

    #[test]
    fn pulse_channel_enumerates_a_lattice() {
        let stg = parse_g(PULSE_G).unwrap();
        let rs = expand_handshakes(&stg, &ExpansionOptions::default()).unwrap();
        assert!(rs.len() >= 2, "got {}", rs.len());
        assert!(rs[0].choices.is_empty(), "eager extreme first");
        // Every survivor is live, speed-independent and rebuilds to the
        // incrementally derived graph.
        for r in &rs {
            assert!(r.sg.deadlock_states().is_empty());
            assert!(speed_independence(&r.sg).is_speed_independent());
            let rebuilt = build_state_graph(&r.stg).unwrap();
            assert!(rebuilt == r.sg);
        }
        // The lazy extreme is present: some reshuffling leaves the
        // channel's edges concurrent with nothing.
        fn touches(r: &Reshuffling, name: &str) -> bool {
            let sig = r.stg.signal_by_name(name).unwrap();
            concurrent_pairs(&r.sg)
                .iter()
                .any(|&(a, b)| a.signal == sig || b.signal == sig)
        }
        assert!(
            rs.iter().any(|r| !touches(r, "r") && !touches(r, "a")),
            "lazy extreme missing"
        );
    }

    /// The shared-prefix realization is an optimization, not a
    /// semantics change: for every lattice point, the trie path and a
    /// freshly chained `restrict_with_place` sequence must agree — same
    /// safety verdict, equal state graphs. The trie's products plus
    /// hits must equal the products the chain runs, counted apart, and
    /// the trie must run strictly fewer.
    #[test]
    fn trie_realization_matches_chained_for_every_point() {
        use reshuffle_sg::restrict::restrict_with_place;
        use reshuffle_sg::EventId;
        for src in [PULSE_G, SYMMETRIC_G] {
            let stg = parse_g(src).unwrap();
            let base = expand::four_phase_base(&stg).unwrap();
            let anchors = lattice::anchors(&base);
            let points = lattice::enumerate_points(&anchors);
            let mut cache = prune::PrefixCache::default();
            let mut chained_products = 0u64;
            for point in &points {
                let constraints = point.constraints(&base.rtz, &anchors);
                // Reference: the chained path.
                let mut chained = Some(base.sg.clone());
                for &(b, r) in &constraints {
                    chained = chained.and_then(|g| {
                        chained_products += 1;
                        restrict_with_place(&g, EventId(b.0), EventId(r.0)).ok()
                    });
                }
                let trie = prune::realize(&base, &constraints, &mut cache);
                match (&chained, &trie) {
                    (None, None) => {}
                    (Some(g), Some(t)) => {
                        assert!(g == t, "{src}: point {constraints:?} drifted")
                    }
                    _ => panic!(
                        "{src}: feasibility disagrees at {constraints:?}: \
                         chained={} trie={}",
                        chained.is_some(),
                        trie.is_some()
                    ),
                }
            }
            assert_eq!(
                chained_products,
                cache.products + cache.hits,
                "{src}: product accounting broken"
            );
            assert!(
                cache.products < chained_products,
                "{src}: trie saved nothing ({} executed, {chained_products} chained)",
                cache.products,
            );
        }
    }

    #[test]
    fn stats_account_for_every_point() {
        let stg = parse_g(PULSE_G).unwrap();
        let e = expand_handshakes_stats(&stg, &ExpansionOptions::default()).unwrap();
        // Every considered point is either kept or counted in exactly
        // one discard bucket.
        assert_eq!(
            e.stats.points,
            e.reshufflings.len() + e.stats.pruned(),
            "{:?}",
            e.stats
        );
        assert!(e.stats.points >= 2, "degenerate lattice");
        // The symmetric two-channel spec exercises the symmetry bucket.
        let sym = parse_g(SYMMETRIC_G).unwrap();
        let e = expand_handshakes_stats(
            &sym,
            &ExpansionOptions {
                max_reshufflings: 256,
            },
        )
        .unwrap();
        assert!(e.stats.deduped_symmetry > 0, "{:?}", e.stats);
        assert_eq!(e.stats.points, e.reshufflings.len() + e.stats.pruned());
    }

    #[test]
    fn budget_keeps_both_extremes() {
        let stg = parse_g(PULSE_G).unwrap();
        let rs = expand_handshakes(
            &stg,
            &ExpansionOptions {
                max_reshufflings: 2,
            },
        )
        .unwrap();
        assert_eq!(rs.len(), 2);
        assert!(rs[0].choices.is_empty(), "eager kept");
        assert!(
            rs[1].choices.len() >= rs[0].choices.len(),
            "lazy extreme kept"
        );
    }

    #[test]
    fn symmetric_channels_are_deduplicated() {
        let stg = parse_g(SYMMETRIC_G).unwrap();
        let rs = expand_handshakes(
            &stg,
            &ExpansionOptions {
                max_reshufflings: 256,
            },
        )
        .unwrap();
        assert!(rs.len() >= 2);
        // Mirroring a candidate's choices through the 1<->2 swap must
        // not produce another candidate's choice set.
        let mirror =
            |c: &str| -> String { c.replace('1', "#").replace('2', "1").replace('#', "2") };
        let sets: Vec<Vec<String>> = rs
            .iter()
            .map(|r| {
                let mut v = r.choices.clone();
                v.sort();
                v
            })
            .collect();
        for (i, s) in sets.iter().enumerate() {
            let mut m: Vec<String> = s.iter().map(|c| mirror(c)).collect();
            m.sort();
            if m == *s {
                continue; // self-symmetric point
            }
            assert!(
                !sets.iter().enumerate().any(|(j, t)| j != i && *t == m),
                "mirror pair survived: {s:?} / {m:?}"
            );
        }
    }

    #[test]
    fn unbound_toggle_and_malformed_channel_errors_surface() {
        let stg = parse_g(
            ".model t2\n.inputs a\n.outputs b\n.graph\na~ b~\nb~ a~\n\
             .marking { <b~,a~> }\n.end\n",
        )
        .unwrap();
        assert!(matches!(
            expand_handshakes(&stg, &ExpansionOptions::default()),
            Err(HandshakeError::UnboundToggle { .. })
        ));
    }
}
