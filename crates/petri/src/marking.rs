//! Markings for 1-safe nets, stored as bitsets.
//!
//! Asynchronous controller STGs are 1-safe by construction (a second
//! token in a place would mean two outstanding instances of the same
//! handshake phase). The token game below *enforces* safeness: a firing
//! that would double-mark a place reports [`PetriError::UnsafePlace`]
//! instead of silently accumulating tokens.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{PetriError, Result};
use crate::ids::{PlaceId, TransitionId};
use crate::net::PetriNet;

/// A 1-safe marking: the set of marked places, as a fixed-width bitset.
#[derive(Clone, PartialEq, Eq)]
pub struct Marking {
    bits: Box<[u64]>,
    num_places: u32,
}

impl Marking {
    /// Creates an empty marking for a net with `num_places` places.
    pub fn empty(num_places: usize) -> Self {
        let words = num_places.div_ceil(64).max(1);
        Marking {
            bits: vec![0u64; words].into_boxed_slice(),
            num_places: num_places as u32,
        }
    }

    /// Creates a marking with exactly the given places marked.
    pub fn with_tokens(num_places: usize, marked: &[PlaceId]) -> Self {
        let mut m = Self::empty(num_places);
        for &p in marked {
            m.set(p, true);
        }
        m
    }

    /// A marking over `num_places` places from its bitset words.
    pub(crate) fn from_words(num_places: usize, words: &[u64]) -> Self {
        Marking {
            bits: words.into(),
            num_places: num_places as u32,
        }
    }

    /// The bitset words: place `p` is bit `p % 64` of word `p / 64`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Number of places this marking was sized for.
    pub fn num_places(&self) -> usize {
        self.num_places as usize
    }

    /// Whether place `p` holds a token.
    #[inline]
    pub fn contains(&self, p: PlaceId) -> bool {
        let i = p.index();
        debug_assert!(i < self.num_places as usize);
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets or clears the token in place `p`.
    #[inline]
    pub fn set(&mut self, p: PlaceId, value: bool) {
        let i = p.index();
        debug_assert!(i < self.num_places as usize);
        if value {
            self.bits[i / 64] |= 1 << (i % 64);
        } else {
            self.bits[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Number of tokens in the marking.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the marked places in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = PlaceId> + '_ {
        (0..self.num_places as usize)
            .map(PlaceId::from_index)
            .filter(move |&p| self.contains(p))
    }

    /// Whether transition `t` of `net` is enabled in this marking.
    pub fn enables(&self, net: &PetriNet, t: TransitionId) -> bool {
        net.preset(t).iter().all(|&p| self.contains(p))
    }

    /// All transitions of `net` enabled in this marking.
    pub fn enabled_transitions(&self, net: &PetriNet) -> Vec<TransitionId> {
        net.transitions()
            .filter(|&t| self.enables(net, t))
            .collect()
    }

    /// Fires transition `t`, producing the successor marking.
    ///
    /// # Errors
    ///
    /// * [`PetriError::NotEnabled`] if `t` lacks an input token;
    /// * [`PetriError::UnsafePlace`] if firing would double-mark a place
    ///   (the net is not 1-safe from this marking).
    pub fn fire(&self, net: &PetriNet, t: TransitionId) -> Result<Marking> {
        if !self.enables(net, t) {
            return Err(PetriError::NotEnabled(t));
        }
        let mut next = self.clone();
        for &p in net.preset(t) {
            next.set(p, false);
        }
        for &p in net.postset(t) {
            if next.contains(p) {
                return Err(PetriError::UnsafePlace {
                    place: p,
                    transition: t,
                });
            }
            next.set(p, true);
        }
        Ok(next)
    }

    /// Renders the marking with place names from `net`, e.g. `{p1 p4}`.
    pub fn display<'a>(&'a self, net: &'a PetriNet) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Marking, &'a PetriNet);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{{")?;
                let mut first = true;
                for p in self.0.iter() {
                    if !first {
                        write!(f, " ")?;
                    }
                    first = false;
                    write!(f, "{}", self.1.place_name(p))?;
                }
                write!(f, "}}")
            }
        }
        D(self, net)
    }
}

impl Hash for Marking {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bits.hash(state);
    }
}

impl fmt::Debug for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Marking{{")?;
        let mut first = true;
        for p in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle_net() -> (PetriNet, Marking, TransitionId, TransitionId) {
        // p0 -> a -> p1 -> b -> p0
        let mut n = PetriNet::new();
        let p0 = n.add_place("p0");
        let p1 = n.add_place("p1");
        let a = n.add_transition("a");
        let b = n.add_transition("b");
        n.add_arc_pt(p0, a).unwrap();
        n.add_arc_tp(a, p1).unwrap();
        n.add_arc_pt(p1, b).unwrap();
        n.add_arc_tp(b, p0).unwrap();
        let m0 = Marking::with_tokens(2, &[p0]);
        (n, m0, a, b)
    }

    #[test]
    fn fire_moves_token() {
        let (n, m0, a, b) = cycle_net();
        assert!(m0.enables(&n, a));
        assert!(!m0.enables(&n, b));
        let m1 = m0.fire(&n, a).unwrap();
        assert!(!m1.contains(PlaceId(0)));
        assert!(m1.contains(PlaceId(1)));
        let m2 = m1.fire(&n, b).unwrap();
        assert_eq!(m2, m0);
    }

    #[test]
    fn firing_disabled_errors() {
        let (n, m0, _, b) = cycle_net();
        assert_eq!(m0.fire(&n, b), Err(PetriError::NotEnabled(TransitionId(1))));
    }

    #[test]
    fn unsafe_firing_detected() {
        // p0 -> a -> p1, but p1 already marked.
        let mut n = PetriNet::new();
        let p0 = n.add_place("p0");
        let p1 = n.add_place("p1");
        let a = n.add_transition("a");
        n.add_arc_pt(p0, a).unwrap();
        n.add_arc_tp(a, p1).unwrap();
        let m = Marking::with_tokens(2, &[p0, p1]);
        assert!(matches!(m.fire(&n, a), Err(PetriError::UnsafePlace { .. })));
    }

    #[test]
    fn iter_and_count() {
        let m = Marking::with_tokens(130, &[PlaceId(0), PlaceId(64), PlaceId(129)]);
        assert_eq!(m.count(), 3);
        let v: Vec<_> = m.iter().collect();
        assert_eq!(v, vec![PlaceId(0), PlaceId(64), PlaceId(129)]);
    }

    #[test]
    fn display_with_names() {
        let (n, m0, _, _) = cycle_net();
        assert_eq!(m0.display(&n).to_string(), "{p0}");
    }

    #[test]
    fn equality_and_hash_depend_on_bits() {
        use std::collections::HashSet;
        let a = Marking::with_tokens(10, &[PlaceId(3)]);
        let b = Marking::with_tokens(10, &[PlaceId(3)]);
        let c = Marking::with_tokens(10, &[PlaceId(4)]);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
