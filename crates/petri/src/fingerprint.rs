//! Canonical fingerprints of STGs.
//!
//! [`canonical_fingerprint`] hashes what a specification *means* rather
//! than how it was built: signals are visited in name order, transitions
//! in label order, and places as (producer labels, consumer labels,
//! marked) triples in sorted order — so two specifications that differ
//! only in declaration order of signals, transitions or places hash
//! equal, while any structural difference (an arc, a token, a signal
//! kind, a handshake declaration) changes the fingerprint.
//!
//! The fingerprint is the cache key of the facade's synthesis cache:
//! re-synthesizing a spec that was already synthesized under the same
//! options must be a lookup, not a pipeline run.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::ids::SignalId;
use crate::stg::Stg;

/// A canonical 64-bit fingerprint of an STG.
///
/// Invariant under declaration order of signals, transitions and
/// places; sensitive to the model name, the signal table (names and
/// kinds), declared handshake channels, transition labels (including
/// instance numbers), the arc structure, and the initial marking.
///
/// ```
/// use reshuffle_petri::{canonical_fingerprint, parse_g, write_g};
///
/// # fn main() -> Result<(), reshuffle_petri::PetriError> {
/// let stg = parse_g(
///     ".model toggle\n.inputs a\n.outputs b\n.graph\n\
///      a+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n",
/// )?;
/// // A write/parse round trip preserves the fingerprint.
/// let reparsed = parse_g(&write_g(&stg))?;
/// assert_eq!(canonical_fingerprint(&stg), canonical_fingerprint(&reparsed));
/// # Ok(())
/// # }
/// ```
pub fn canonical_fingerprint(stg: &Stg) -> u64 {
    let mut h = DefaultHasher::new();
    stg.name.hash(&mut h);

    // Signal table in name order (names are unique).
    let mut sigs: Vec<SignalId> = stg.signals().collect();
    sigs.sort_by(|&a, &b| stg.signal(a).name.cmp(&stg.signal(b).name));
    sigs.len().hash(&mut h);
    for &s in &sigs {
        let sig = stg.signal(s);
        sig.name.hash(&mut h);
        sig.kind.hash(&mut h);
        // Signals once carried an optional declared initial value;
        // hashing its absence keeps every fingerprint stable.
        None::<bool>.hash(&mut h);
    }

    // Open handshake channels, as sorted (req, ack) name pairs.
    let mut channels: Vec<(&str, &str)> = stg
        .handshakes()
        .iter()
        .map(|c| {
            (
                stg.signal(c.req).name.as_str(),
                stg.signal(c.ack).name.as_str(),
            )
        })
        .collect();
    channels.sort_unstable();
    channels.hash(&mut h);

    // Transitions by rendered label (label + instance identifies one).
    let mut labels: Vec<&str> = stg.transitions().map(|t| stg.transition_name(t)).collect();
    labels.sort_unstable();
    labels.hash(&mut h);

    // Places as (producer labels, consumer labels, marked) in canonical
    // order: place names are incidental, the flow relation is not.
    let marking = stg.initial_marking();
    let mut places: Vec<(Vec<&str>, Vec<&str>, bool)> = stg
        .places()
        .map(|p| {
            let mut prod: Vec<&str> = stg
                .net()
                .producers(p)
                .iter()
                .map(|&t| stg.transition_name(t))
                .collect();
            prod.sort_unstable();
            let mut cons: Vec<&str> = stg
                .net()
                .consumers(p)
                .iter()
                .map(|&t| stg.transition_name(t))
                .collect();
            cons.sort_unstable();
            (prod, cons, marking.contains(p))
        })
        .collect();
    places.sort_unstable();
    places.hash(&mut h);

    h.finish()
}

impl Stg {
    /// [`canonical_fingerprint`] as a method.
    pub fn canonical_fingerprint(&self) -> u64 {
        canonical_fingerprint(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_g;
    use crate::stg::{Polarity, SignalKind};
    use crate::write::write_g;

    const TOGGLE: &str = ".model t\n.inputs a\n.outputs b\n.graph\n\
         a+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n";

    #[test]
    fn roundtrip_is_stable() {
        let stg = parse_g(TOGGLE).unwrap();
        let reparsed = parse_g(&write_g(&stg)).unwrap();
        assert_eq!(
            canonical_fingerprint(&stg),
            canonical_fingerprint(&reparsed)
        );
    }

    /// Builds the a/b toggle programmatically; `swapped` reverses the
    /// declaration order of both the transitions and the places.
    fn built_toggle(swapped: bool) -> Stg {
        let mut g = Stg::new("t");
        let a = g.add_signal("a", SignalKind::Input).unwrap();
        let b = g.add_signal("b", SignalKind::Output).unwrap();
        let (ap, am) = (
            g.add_edge_transition(a, Polarity::Rise),
            g.add_edge_transition(a, Polarity::Fall),
        );
        let (bp, bm) = (
            g.add_edge_transition(b, Polarity::Rise),
            g.add_edge_transition(b, Polarity::Fall),
        );
        let mut arcs = [(ap, bp), (bp, am), (am, bm), (bm, ap)];
        if swapped {
            arcs.reverse();
        }
        for (from, to) in arcs {
            g.connect(from, to).unwrap();
        }
        let start = g.net().place_by_name("<b-,a+>").unwrap();
        g.set_initial_places(&[start]);
        g
    }

    #[test]
    fn declaration_order_is_canonicalized() {
        assert_eq!(
            canonical_fingerprint(&built_toggle(false)),
            canonical_fingerprint(&built_toggle(true))
        );
        // And both match the parsed source of the same net.
        assert_eq!(
            canonical_fingerprint(&built_toggle(false)),
            canonical_fingerprint(&parse_g(TOGGLE).unwrap())
        );
    }

    #[test]
    fn structure_and_name_changes_are_detected() {
        let base = canonical_fingerprint(&parse_g(TOGGLE).unwrap());
        // A different model name is a different spec.
        let renamed = TOGGLE.replace(".model t", ".model u");
        assert_ne!(base, canonical_fingerprint(&parse_g(&renamed).unwrap()));
        // A different initial marking is a different spec.
        let remarked = TOGGLE.replace("<b-,a+>", "<a+,b+>");
        assert_ne!(base, canonical_fingerprint(&parse_g(&remarked).unwrap()));
        // A different signal kind is a different spec.
        let rekind = TOGGLE.replace(".inputs a\n.outputs b", ".inputs\n.outputs a b");
        assert_ne!(base, canonical_fingerprint(&parse_g(&rekind).unwrap()));
    }

    #[test]
    fn handshake_declarations_are_fingerprinted() {
        let partial = ".model hs\n.inputs a\n.outputs r\n.handshake r a\n.graph\n\
             r~ a~\na~ r~\n.marking { <a~,r~> }\n.end\n";
        let stg = parse_g(partial).unwrap();
        let fp = canonical_fingerprint(&stg);
        assert_eq!(fp, canonical_fingerprint(&parse_g(&write_g(&stg)).unwrap()));
        let mut no_channel = stg.clone();
        no_channel.remove_handshake(0);
        assert_ne!(fp, canonical_fingerprint(&no_channel));
    }
}
