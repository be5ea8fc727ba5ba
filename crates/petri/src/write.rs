//! The astg (`.g`) writer.

use std::fmt::Write as _;

use crate::ids::{PlaceId, TransitionId};
use crate::stg::{SignalKind, Stg, TransLabel};

/// The producer and consumer of `p` when it can be printed as an
/// implicit arc between two transitions (single producer, single
/// consumer, conventional `<..>` name).
fn implicit_ends(stg: &Stg, p: PlaceId) -> Option<(TransitionId, TransitionId)> {
    let net = stg.net();
    match (net.producers(p), net.consumers(p)) {
        (&[a], &[b]) if net.place_name(p).starts_with('<') => Some((a, b)),
        _ => None,
    }
}

/// How `p` is written: an implicit place by its actual endpoints (a
/// rewiring such as CSC insertion can leave a stale `<..>` name behind,
/// which the parser could not resolve), any other place by its name.
fn place_ref(stg: &Stg, p: PlaceId) -> String {
    match implicit_ends(stg, p) {
        Some((a, b)) => format!("<{},{}>", stg.transition_name(a), stg.transition_name(b)),
        None => stg.net().place_name(p).to_string(),
    }
}

/// Renders an [`Stg`] in astg (`.g`) format, parseable by
/// [`crate::parse::parse_g`] (and by petrify/Workcraft).
pub fn write_g(stg: &Stg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", stg.name);
    for (kind, directive) in [
        (SignalKind::Input, ".inputs"),
        (SignalKind::Output, ".outputs"),
        (SignalKind::Internal, ".internal"),
    ] {
        let names: Vec<&str> = stg
            .signals()
            .filter(|&s| stg.signal(s).kind == kind)
            .map(|s| stg.signal(s).name.as_str())
            .collect();
        if !names.is_empty() {
            let _ = writeln!(out, "{directive} {}", names.join(" "));
        }
    }
    for h in stg.handshakes() {
        let _ = writeln!(
            out,
            ".handshake {} {}",
            stg.signal(h.req).name,
            stg.signal(h.ack).name
        );
    }
    let dummies: Vec<&str> = stg
        .transitions()
        .filter(|&t| matches!(stg.label(t), TransLabel::Dummy { .. }))
        .map(|t| stg.transition_name(t))
        .collect();
    if !dummies.is_empty() {
        let _ = writeln!(out, ".dummy {}", dummies.join(" "));
    }
    let _ = writeln!(out, ".graph");
    // Transition lines: targets are successor transitions (through
    // implicit places) and explicit postset places.
    for t in stg.transitions() {
        let mut targets: Vec<String> = Vec::new();
        for &p in stg.net().postset(t) {
            match implicit_ends(stg, p) {
                Some((_, u)) => targets.push(stg.transition_name(u).to_string()),
                None => targets.push(stg.net().place_name(p).to_string()),
            }
        }
        if !targets.is_empty() {
            let _ = writeln!(out, "{} {}", stg.transition_name(t), targets.join(" "));
        }
    }
    // Explicit place lines.
    for p in stg.places() {
        if implicit_ends(stg, p).is_some() || stg.net().is_isolated_place(p) {
            continue;
        }
        let targets: Vec<&str> = stg
            .net()
            .consumers(p)
            .iter()
            .map(|&u| stg.transition_name(u))
            .collect();
        if !targets.is_empty() {
            let _ = writeln!(out, "{} {}", stg.net().place_name(p), targets.join(" "));
        }
    }
    // Marking.
    let marked: Vec<String> = stg
        .initial_marking()
        .iter()
        .map(|p| place_ref(stg, p))
        .collect();
    let _ = writeln!(out, ".marking {{ {} }}", marked.join(" "));
    let _ = writeln!(out, ".end");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_g;

    const FIG1: &str = "\
.model fig1
.inputs Req
.outputs Ack
.graph
Ack+ Req-
Req- Req+ Ack-
Ack- Ack+
Req+ Ack+
.marking { <Req+,Ack+> <Ack-,Ack+> }
.end
";

    #[test]
    fn roundtrip_through_writer() {
        let g1 = parse_g(FIG1).unwrap();
        let text = write_g(&g1);
        let g2 = parse_g(&text).unwrap();
        assert_eq!(g1.num_signals(), g2.num_signals());
        assert_eq!(g1.net().num_transitions(), g2.net().num_transitions());
        assert_eq!(g1.net().num_places(), g2.net().num_places());
        assert_eq!(g1.initial_marking().count(), g2.initial_marking().count());
        // Same language start: same enabled transitions initially.
        let e1: Vec<String> = g1
            .initial_marking()
            .enabled_transitions(g1.net())
            .iter()
            .map(|&t| g1.transition_name(t).to_string())
            .collect();
        let e2: Vec<String> = g2
            .initial_marking()
            .enabled_transitions(g2.net())
            .iter()
            .map(|&t| g2.transition_name(t).to_string())
            .collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn handshake_declarations_roundtrip() {
        let src = ".model hs\n.inputs a\n.outputs r\n.handshake r a\n.graph\n\
             r~ a~\na~ r~\n.marking { <a~,r~> }\n.end\n";
        let g1 = parse_g(src).unwrap();
        let text = write_g(&g1);
        assert!(text.contains(".handshake r a"), "{text}");
        let g2 = parse_g(&text).unwrap();
        assert_eq!(g2.handshakes(), g1.handshakes());
        assert!(g2.is_partial());
    }
}
