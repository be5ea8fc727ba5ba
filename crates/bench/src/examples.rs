//! Shared `.g` sources for benches and the `tables` binary.
//!
//! The paper's Tables 1 and 2 report literal counts and cycle metrics
//! for a suite of controllers. The original benchmark `.g` files are
//! not redistributable here, so these are structurally faithful
//! stand-ins: a toggle, the xyz pipeline cell, a left/right handshake
//! coupler (Table 1 flavor), a deeper sequential pipeline standing in
//! for the MMU controller (Table 2 flavor), a fork/join PAR component
//! that exercises real concurrency in the state graph, and two
//! controllers with CSC conflicts born from concurrency — the Section 4
//! reduction targets: `mfig1` (insertion-unresolvable, reduction saves
//! it) and `creq` (both paths work; reduction is far cheaper) — and two
//! *partial* specifications for the Section 3 handshake-expansion
//! stage: `hslr` (a two-phase left/right channel pair) and `pcreq` (a
//! partial `creq` whose Req/Ack channel ordering is open). Three
//! generated partial families ([`pulses`], [`two_channel`], [`ring`])
//! scale the Section 3 search; their size-3 and size-4 members are the
//! slowest paper-path inputs.

/// Two-signal toggle: the smallest closed handshake.
pub const TOGGLE_G: &str = "\
.model toggle
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";

/// The xyz example: a three-signal micropipeline cell with distinct
/// state codes (6 states, CSC-clean).
pub const XYZ_G: &str = "\
.model xyz
.inputs x
.outputs y z
.graph
x+ y+
y+ z+
z+ x-
x- y-
y- z-
z- x+
.marking { <z-,x+> }
.end
";

/// Left/right handshake coupler: a passive/active four-phase converter
/// (8 states, CSC-clean). Table 1 flavor.
pub const LR_G: &str = "\
.model lr
.inputs lr ra
.outputs la rr
.graph
lr+ rr+
rr+ ra+
ra+ la+
la+ lr-
lr- rr-
rr- ra-
ra- la-
la- lr+
.marking { <la-,lr+> }
.end
";

/// Five-signal sequential pipeline: a stand-in for the paper's MMU
/// controller at a similar state count (10 states, CSC-clean).
/// Table 2 flavor.
pub const MMU_G: &str = "\
.model mmu
.inputs x
.outputs y1 y2 y3 y4
.graph
x+ y1+
y1+ y2+
y2+ y3+
y3+ y4+
y4+ x-
x- y1-
y1- y2-
y2- y3-
y3- y4-
y4- x+
.marking { <y4-,x+> }
.end
";

/// Fork/join PAR component: `go` forks two concurrent request/ack
/// branches that rejoin on `done` — real concurrency diamonds in the
/// state graph.
pub const PAR_G: &str = "\
.model par
.inputs go a1 a2
.outputs r1 r2 done
.graph
go+ r1+ r2+
r1+ a1+
r2+ a2+
a1+ done+
a2+ done+
done+ go-
go- r1- r2-
r1- a1-
r2- a2-
a1- done-
a2- done-
done- go+
.marking { <done-,go+> }
.end
";

/// Mirror of the paper's Fig. 1 controller (`Req` driven by the
/// circuit): `Req+` runs concurrent with `Ack-`, and the interleaving
/// binary-codes two states identically — a CSC conflict that
/// state-signal insertion cannot resolve (the conflicting states are
/// separated by input events only) but concurrency reduction dissolves
/// by serializing `Req+` after `Ack-`.
pub const MFIG1_G: &str = "\
.model mfig1
.inputs Ack
.outputs Req
.graph
Ack+ Req-
Req- Req+ Ack-
Ack- Ack+
Req+ Ack+
.marking { <Req+,Ack+> <Ack-,Ack+> }
.end
";

/// Concurrent-request coupler: after `Req-`, the early request `Req+`
/// runs concurrent with the environment's `Ack-`/`Go-` tail, and one
/// interleaving collides codes with the `Go+` stage (one CSC conflict).
/// Both cures work here: insertion needs a state signal and ~11
/// literals; serializing `Req+` behind the tail needs none and ~2.
pub const CREQ_G: &str = "\
.model creq
.inputs Ack
.outputs Req Go
.graph
Ack+ Go+
Go+ Req-
Req- Req+ Ack-
Ack- Go-
Req+ Ack+
Go- Ack+
.marking { <Req+,Ack+> <Go-,Ack+> }
.end
";

/// Partial two-phase left/right coupler: the passive `lr`/`la` channel
/// and the active `rr`/`ra` channel are declared open (`.handshake`),
/// their events are toggles, and only the forward latency path
/// `lr -> rr -> ra -> la` is committed. Handshake expansion enumerates
/// where the four return-to-zero edges go; the eager extreme costs two
/// state signals and ~18 literals, while composing with the reduce
/// stage recovers the sequential converter at 2 literals (the `lr`
/// entry's logic).
pub const HSLR_G: &str = "\
.model hslr
.inputs lr ra
.outputs la rr
.handshake lr la
.handshake rr ra
.graph
lr~ rr~
rr~ ra~
ra~ la~
la~ lr~
.marking { <la~,lr~> }
.end
";

/// Partial `creq`: the `Req`/`Ack` channel ordering is open, and only
/// the committed behaviour remains — a `Go` pulse follows each
/// acknowledged request. The lattice ranges from the eager extreme
/// (return-to-zero concurrent with the pulse: 2 state signals, 16
/// literals) to reshufflings that serialize `Req-`/`Ack-` behind the
/// pulse edges; the ranked selection picks `Go+ -> Req-`, `Go- -> Ack-`
/// at one state signal and 6 literals.
pub const PCREQ_G: &str = "\
.model pcreq
.inputs Ack
.outputs Req Go
.handshake Req Ack
.graph
Req~ Ack~
Ack~ Go+
Go+ Go-
Go- Req~
.marking { <Go-,Req~> }
.end
";

/// Generates a synthetic fork/join controller with `n` parallel
/// request/acknowledge handshake stages: `go+` forks `n` concurrent
/// `r{i}+ -> a{i}+` branches rejoining on `done+`, then the mirrored
/// falling phase. The branches interleave freely, so the state count is
/// exponential in `n` — exactly `2 * 3^n + 2` states — which makes this
/// the scaling corpus for the reachability bench (`reach`): `n = 11`
/// tops 350 000 states.
///
/// Supported range: `1 ..= 31` (2n + 2 signals must fit the 64-signal
/// state-code limit).
pub fn scaled_pipeline(n: usize) -> String {
    use std::fmt::Write as _;
    assert!((1..=31).contains(&n), "scaled_pipeline supports 1..=31");
    let mut g = String::new();
    let _ = writeln!(g, ".model scaled{n}");
    let _ = write!(g, ".inputs go");
    for i in 1..=n {
        let _ = write!(g, " a{i}");
    }
    let _ = writeln!(g);
    let _ = write!(g, ".outputs done");
    for i in 1..=n {
        let _ = write!(g, " r{i}");
    }
    let _ = writeln!(g);
    let _ = writeln!(g, ".graph");
    for i in 1..=n {
        let _ = writeln!(g, "go+ r{i}+");
        let _ = writeln!(g, "r{i}+ a{i}+");
        let _ = writeln!(g, "a{i}+ done+");
    }
    let _ = writeln!(g, "done+ go-");
    for i in 1..=n {
        let _ = writeln!(g, "go- r{i}-");
        let _ = writeln!(g, "r{i}- a{i}-");
        let _ = writeln!(g, "a{i}- done-");
    }
    let _ = writeln!(g, "done- go+");
    let _ = writeln!(g, ".marking {{ <done-,go+> }}");
    let _ = writeln!(g, ".end");
    g
}

/// [`scaled_pipeline`] with a *series dummy* padding every branch edge
/// `r{i} -> a{i}` (rising and falling): `.dummy pu{i}`/`pd{i}`
/// transitions that commit no signal edge but hold an extra
/// intermediate marking each, so every branch has four positions per
/// half-cycle instead of three and the raw state space grows from
/// `2 * 3^n + 2` to `2 * 4^n + 2` states — at `n = 12` that is 33.5
/// million raw states against the plain net's 1.06 million.
///
/// Structural pre-reduction ([`reshuffle_petri::prereduce`]) merges
/// every series dummy away and recovers the plain [`scaled_pipeline`]
/// net exactly (asserted by canonical fingerprint in the tests), which
/// makes this the pre-/post-reduction corpus of the `reach` bench
/// and the `tables --scaled` trajectory: the padded specification is
/// only buildable because the state space shrinks *before* the state
/// graph exists.
pub fn scaled_pipeline_padded(n: usize) -> String {
    use std::fmt::Write as _;
    assert!((1..=31).contains(&n), "scaled_pipeline supports 1..=31");
    let mut g = String::new();
    let _ = writeln!(g, ".model scaled{n}");
    let _ = write!(g, ".inputs go");
    for i in 1..=n {
        let _ = write!(g, " a{i}");
    }
    let _ = writeln!(g);
    let _ = write!(g, ".outputs done");
    for i in 1..=n {
        let _ = write!(g, " r{i}");
    }
    let _ = writeln!(g);
    let _ = write!(g, ".dummy");
    for i in 1..=n {
        let _ = write!(g, " pu{i} pd{i}");
    }
    let _ = writeln!(g);
    let _ = writeln!(g, ".graph");
    for i in 1..=n {
        let _ = writeln!(g, "go+ r{i}+");
        let _ = writeln!(g, "r{i}+ pu{i}");
        let _ = writeln!(g, "pu{i} a{i}+");
        let _ = writeln!(g, "a{i}+ done+");
    }
    let _ = writeln!(g, "done+ go-");
    for i in 1..=n {
        let _ = writeln!(g, "go- r{i}-");
        let _ = writeln!(g, "r{i}- pd{i}");
        let _ = writeln!(g, "pd{i} a{i}-");
        let _ = writeln!(g, "a{i}- done-");
    }
    let _ = writeln!(g, "done- go+");
    let _ = writeln!(g, ".marking {{ <done-,go+> }}");
    let _ = writeln!(g, ".end");
    g
}

/// Closed-form raw state count of [`scaled_pipeline`]`(n)`:
/// `2 * 3^n + 2` (each branch occupies one of three positions per
/// half-cycle, plus the two join states). Verified by exploration in
/// the tests.
pub fn scaled_pipeline_states(n: usize) -> usize {
    2 * 3usize.pow(n as u32) + 2
}

/// Closed-form raw state count of [`scaled_pipeline_padded`]`(n)`:
/// `2 * 4^n + 2` (the series dummy adds a fourth branch position per
/// half-cycle). This is the state space the padded net explodes to
/// *without* pre-reduction; with it, the build sees
/// [`scaled_pipeline_states`]`(n)`. Verified by exploration in the
/// tests.
pub fn scaled_pipeline_padded_states(n: usize) -> usize {
    2 * 4usize.pow(n as u32) + 2
}

/// A partial specification: one open channel `req`/`ack` followed by
/// `k` output pulses `p1 .. pk`, one after the other (`concurrent =
/// false`, model `pulsess{k}`) or forked in parallel (`pulsesc{k}`).
/// The open return-to-zero edges can land between any of the pulses,
/// so the lattice grows with `k`, and most reshufflings need CSC
/// insertion.
pub fn pulses(k: usize, concurrent: bool) -> String {
    use std::fmt::Write as _;
    let mut g = String::new();
    let tag = if concurrent { "c" } else { "s" };
    let _ = writeln!(g, ".model pulses{tag}{k}\n.inputs ack");
    let _ = write!(g, ".outputs req");
    for i in 1..=k {
        let _ = write!(g, " p{i}");
    }
    let _ = writeln!(g, "\n.handshake req ack\n.graph\nreq~ ack~");
    if concurrent {
        let _ = write!(g, "ack~");
        for i in 1..=k {
            let _ = write!(g, " p{i}+");
        }
        let _ = writeln!(g);
        for i in 1..=k {
            let _ = writeln!(g, "p{i}+ p{i}-\np{i}- req~");
        }
        let _ = write!(g, ".marking {{");
        for i in 1..=k {
            let _ = write!(g, " <p{i}-,req~>");
        }
        let _ = writeln!(g, " }}\n.end");
    } else {
        let mut prev = "ack~".to_string();
        for i in 1..=k {
            let _ = writeln!(g, "{prev} p{i}+\np{i}+ p{i}-");
            prev = format!("p{i}-");
        }
        let _ = writeln!(g, "{prev} req~\n.marking {{ <{prev},req~> }}\n.end");
    }
    g
}

/// A partial specification: a passive channel `lr`/`la` and an active
/// channel `rr`/`ra` with `k` internal pulses `x1 .. xk` between the
/// request coming in and the request going out (model `twochan{k}`).
/// Two open channels give a product lattice, and the internal signals
/// give the CSC search places to insert.
pub fn two_channel(k: usize) -> String {
    use std::fmt::Write as _;
    let mut g = String::new();
    let _ = writeln!(g, ".model twochan{k}\n.inputs lr ra\n.outputs la rr");
    let _ = write!(g, ".internal");
    for i in 1..=k {
        let _ = write!(g, " x{i}");
    }
    let _ = writeln!(g, "\n.handshake lr la\n.handshake rr ra\n.graph");
    let mut prev = "lr~".to_string();
    for i in 1..=k {
        let _ = writeln!(g, "{prev} x{i}+\nx{i}+ x{i}-");
        prev = format!("x{i}-");
    }
    let _ = writeln!(g, "{prev} rr~\nrr~ ra~\nra~ la~\nla~ lr~");
    let _ = writeln!(g, ".marking {{ <la~,lr~> }}\n.end");
    g
}

/// A partial specification: `k` active channels `r{i}`/`a{i}` in a
/// ring, each acknowledge starting the next request (model `ring{k}`).
/// Every channel's return-to-zero is open at once: the widest lattice
/// per signal.
pub fn ring(k: usize) -> String {
    use std::fmt::Write as _;
    let mut g = String::new();
    let _ = write!(g, ".model ring{k}\n.inputs");
    for i in 1..=k {
        let _ = write!(g, " a{i}");
    }
    let _ = write!(g, "\n.outputs");
    for i in 1..=k {
        let _ = write!(g, " r{i}");
    }
    let _ = writeln!(g);
    for i in 1..=k {
        let _ = writeln!(g, ".handshake r{i} a{i}");
    }
    let _ = writeln!(g, ".graph");
    for i in 1..=k {
        let next = i % k + 1;
        let _ = writeln!(g, "r{i}~ a{i}~\na{i}~ r{next}~");
    }
    let _ = writeln!(g, ".marking {{ <a{k}~,r1~> }}\n.end");
    g
}

/// Every example, with its name: the rows of the `tables` report.
pub const ALL: &[(&str, &str)] = &[
    ("toggle", TOGGLE_G),
    ("xyz", XYZ_G),
    ("lr", LR_G),
    ("mmu", MMU_G),
    ("par", PAR_G),
    ("mfig1", MFIG1_G),
    ("creq", CREQ_G),
    ("hslr", HSLR_G),
    ("pcreq", PCREQ_G),
];

/// The names of [`ALL`] entries that are *partial* specifications
/// (declared `.handshake` channels): they require the expansion stage
/// and error out of the default pipeline.
pub const PARTIAL: &[&str] = &["hslr", "pcreq"];

/// The names of [`ALL`] entries whose specifications have CSC conflicts
/// (every other example is CSC-clean as specified; partial entries are
/// judged on their two-phase unfolding).
pub const CSC_CONFLICTED: &[&str] = &["mfig1", "creq", "pcreq"];

#[cfg(test)]
mod tests {
    use super::*;
    use reshuffle_petri::parse_g;
    use reshuffle_sg::{build_state_graph, csc::analyze_csc};

    #[test]
    fn all_examples_parse_build_and_code_as_documented() {
        for (name, src) in ALL {
            let stg = parse_g(src).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
            assert_eq!(
                stg.is_partial(),
                PARTIAL.contains(name),
                "{name}: partiality does not match PARTIAL"
            );
            // Partial entries still build a (two-phase, parity-unfolded)
            // state graph for the spec columns of the report.
            let sg = build_state_graph(&stg)
                .unwrap_or_else(|e| panic!("{name}: state graph failed: {e}"));
            assert!(sg.num_states() >= 4, "{name}: degenerate state graph");
            assert_eq!(
                analyze_csc(&sg).has_csc(),
                !CSC_CONFLICTED.contains(name),
                "{name}: CSC status does not match CSC_CONFLICTED"
            );
        }
    }

    #[test]
    fn generated_families_are_partial_specs() {
        assert_eq!(
            ring(2),
            ".model ring2\n.inputs a1 a2\n.outputs r1 r2\n.handshake r1 a1\n\
             .handshake r2 a2\n.graph\nr1~ a1~\na1~ r2~\nr2~ a2~\na2~ r1~\n\
             .marking { <a2~,r1~> }\n.end\n"
        );
        for (src, signals) in [
            (ring(3), 6),
            (pulses(3, false), 5),
            (pulses(3, true), 5),
            (two_channel(2), 6),
        ] {
            let stg = parse_g(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
            assert!(stg.is_partial(), "{src}");
            assert_eq!(stg.num_signals(), signals, "{src}");
            build_state_graph(&stg).unwrap_or_else(|e| panic!("{e}\n{src}"));
        }
    }

    #[test]
    fn par_component_has_concurrency() {
        let sg = build_state_graph(&parse_g(PAR_G).unwrap()).unwrap();
        // Fork/join of two 2-event branches: strictly more states than
        // the longest single path through the net.
        assert!(sg.num_states() > 12, "got {}", sg.num_states());
    }

    #[test]
    fn scaled_pipeline_state_count_is_exponential() {
        for n in [1, 3, 5] {
            let stg = parse_g(&scaled_pipeline(n)).unwrap();
            let sg = build_state_graph(&stg).unwrap();
            // Each branch occupies one of 3 positions per half-cycle,
            // plus the two join states.
            assert_eq!(sg.num_states(), 2 * 3usize.pow(n as u32) + 2, "n={n}");
        }
        // The bench's top size clears the 10^5-state bar by the formula
        // (asserted symbolically here; the bench builds it for real).
        assert!(2 * 3usize.pow(11) + 2 >= 100_000);
    }

    #[test]
    #[should_panic(expected = "1..=31")]
    fn scaled_pipeline_rejects_oversized_n() {
        let _ = scaled_pipeline(32);
    }

    #[test]
    fn padded_pipeline_explodes_raw_and_prereduces_to_the_plain_net() {
        use reshuffle_petri::{canonical_fingerprint, prereduce, ReachabilityGraph};
        for n in [1, 3, 5] {
            let plain = parse_g(&scaled_pipeline(n)).unwrap();
            let mut padded = parse_g(&scaled_pipeline_padded(n)).unwrap();
            // The raw (unreduced) padded net reaches 2*4^n + 2 states,
            // the plain net 2*3^n + 2 — both closed forms hold.
            let raw = ReachabilityGraph::explore_default(padded.net(), &padded.initial_marking())
                .unwrap();
            assert_eq!(raw.len(), scaled_pipeline_padded_states(n), "n={n}");
            let plain_rg =
                ReachabilityGraph::explore_default(plain.net(), &plain.initial_marking()).unwrap();
            assert_eq!(plain_rg.len(), scaled_pipeline_states(n), "n={n}");
            // Pre-reduction merges every series dummy and recovers the
            // plain net exactly, declaration-order-invariantly.
            let stats = prereduce(&mut padded).unwrap();
            assert_eq!(stats.dummy_merges, 2 * n, "n={n}");
            assert_eq!(
                canonical_fingerprint(&padded),
                canonical_fingerprint(&plain),
                "n={n}: pre-reduced padded net is not the plain net"
            );
        }
    }
}
