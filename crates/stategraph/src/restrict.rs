//! Incremental state-graph re-derivation after a local STG rewrite.
//!
//! Both edits here derive the state graph of a rewritten STG as the
//! product of the parent's graph with a small automaton, skipping the
//! Petri-net token game and code labelling of a full
//! [`build_state_graph`](crate::build_state_graph) run:
//!
//! * a serialization (the handshake lattice of Section 3, concurrency
//!   reduction in Section 4) adds one fresh 1-safe place `p` with arcs
//!   `from -> p -> to`, so `to` also waits for a token that `from`
//!   produces. [`restrict_with_place`] tracks `p`'s token;
//! * CSC resolution inserts a state signal's two edges in series after
//!   two events. [`insert_series_pair`] tracks the pending edges and the
//!   new code bit, reading the rewrite off the parent STG by the STG
//!   rewrite's own rerouting rule, [`series_places`].
//!
//! Each product is explored breadth-first over dense slots, arcs in the
//! parent's event order, and written straight into the CSR arrays. So
//! the result carries the one numbering of [`StateGraph`]: it equals
//! the full build of the rewritten STG, code for code and arc for arc.

use reshuffle_petri::structural::series_places;
use reshuffle_petri::{
    PetriError, PlaceId, Polarity, Signal, SignalEdge, SignalId, SignalKind, Stg, TransitionId,
    DEFAULT_STATE_BUDGET,
};

use crate::build::{event_table, signal_table};
use crate::error::{Result, SgError};
use crate::sg::{EventId, EventInfo, StateGraph, StateId};

/// Re-derives the state graph after adding one fresh, initially
/// unmarked, 1-safe place with the arcs `from -> p -> to`.
///
/// A state of the result is a parent state `s` and the place's token
/// `k`, reached from `(0, 0)`; slot `2s + k` indexes it. Codes are the
/// parent's. A `to` arc is dropped while the place is empty — that is
/// the serialization — and takes the token otherwise. States are
/// numbered breadth-first over arcs in event order, so the result is
/// the full build of the rewritten STG. The product holds at most
/// twice the parent's states, so it takes no state budget.
///
/// # Errors
///
/// [`SgError::Invalid`] if `from == to`, or if `from` fires while the
/// token is pending (the rewrite would make the net unsafe).
pub fn restrict_with_place(sg: &StateGraph, from: EventId, to: EventId) -> Result<StateGraph> {
    if from == to {
        return Err(SgError::Invalid(
            "an event cannot both produce and consume the serializing place".into(),
        ));
    }
    let mut ids = vec![u32::MAX; 2 * sg.num_states()];
    ids[0] = 0;
    let mut slots = vec![0usize];
    let mut succ_offsets = vec![0u32];
    let mut arc_events: Vec<EventId> = Vec::new();
    let mut arc_targets: Vec<StateId> = Vec::new();
    let mut head = 0;
    while head < slots.len() {
        let (s, token) = (slots[head] / 2, slots[head] & 1 == 1);
        head += 1;
        for (e, t) in sg.succ(s as StateId) {
            if e == to && !token {
                continue; // the serialization: `to` waits for the token
            }
            if e == from && token {
                return Err(SgError::Invalid(format!(
                    "serializing place becomes unsafe: {} fires with a token pending",
                    sg.event(e).label
                )));
            }
            let next = 2 * t as usize + usize::from(e == from || (token && e != to));
            if ids[next] == u32::MAX {
                ids[next] = slots.len() as u32;
                slots.push(next);
            }
            arc_events.push(e);
            arc_targets.push(ids[next]);
        }
        succ_offsets.push(arc_events.len() as u32);
    }
    let codes = slots
        .iter()
        .map(|&slot| sg.code((slot / 2) as StateId))
        .collect();
    StateGraph::from_csr(
        sg.name().to_string(),
        sg.signals().to_vec(),
        sg.events().to_vec(),
        codes,
        succ_offsets,
        arc_events,
        arc_targets,
    )
}

/// Derives the state graph of [`insert_state_signal`]`(stg, name, x,
/// y)` from the state graph `sg` of `stg`, without building that STG:
/// a fresh internal signal `name` whose rising edge is inserted in
/// series after event `x` and whose falling edge after event `y`.
///
/// Call `E_x` the [`series_places`] of `x`, the places the rewrite
/// reroutes from `x` to `name+`, and `E_y` those of `y`. A state of the
/// result is a parent state `s`, two flags `a` (`name+` pending: `x`
/// fired, `name+` not yet) and `b` (`name-` pending), and the new code
/// bit `v`:
///
/// * a parent arc `s -e-> t` is kept unless `e` consumes a place of
///   `E_x` while `a` is set, or of `E_y` while `b` is set; `x` sets `a`
///   and `y` sets `b`;
/// * `name+` fires while `a` is set and clears it, setting `v`; `name-`
///   fires while `b` is set and clears it, clearing `v`.
///
/// The product is exact for a 1-safe, consistent parent without toggle
/// edges, whose states correspond one to one to its markings: while
/// `name+` is pending every place of `E_x` is empty in the candidate's
/// net and marked in the parent's marking, every other place agrees, so
/// the candidate's reachable markings are exactly the product's
/// `(s, a, b)` triples. Codes are the parent's plus `v`; the signal and
/// event tables are the parent's plus `name` and its two events. States
/// are numbered in breadth-first order over arcs in event order — the
/// numbering a full [`build_state_graph`](crate::build_state_graph) of
/// the candidate produces, so the result equals that build, code for
/// code and arc for arc.
///
/// The initial value of the new signal is inferred as the full build
/// does: the product is explored from `v = 0`, and again from `v = 1`
/// if that contradicts.
///
/// # Errors
///
/// Rejects `(x, y)` exactly when [`insert_state_signal`] or the full
/// build of its candidate would:
///
/// * [`SgError::Petri`] with the rewrite's own error if `name` is taken
///   or either event has no series place;
/// * [`SgError::Petri`] with [`PetriError::UnsafePlace`] if `x` fires
///   while `name+` is pending (or `y` while `name-` is), which puts a
///   second token on the link place (a 1-safe parent never lets it, so
///   this rejects only a parent graph that is not its STG's);
/// * [`SgError::Inconsistent`] if, from either initial value, `name+`
///   fires with `v = 1`, `name-` fires with `v = 0`, or one `(s, a, b)`
///   is reached with both values of `v`;
/// * [`SgError::Petri`] with [`PetriError::StateBudgetExceeded`] if more
///   than [`DEFAULT_STATE_BUDGET`] states are reachable (the budget of
///   [`build_state_graph`](crate::build_state_graph));
/// * [`SgError::TooManySignals`] if the candidate has more than 64
///   signals.
///
/// [`SgError::Invalid`] refuses `x == y`, and a parent with toggle
/// edges, which unfold parity (build those candidates in full).
///
/// [`insert_state_signal`]: reshuffle_petri::structural::insert_state_signal
pub fn insert_series_pair(
    sg: &StateGraph,
    stg: &Stg,
    name: &str,
    x: TransitionId,
    y: TransitionId,
) -> Result<StateGraph> {
    let shape = SeriesPair::new(stg, name, x, y)?;
    match shape.explore(sg, false, DEFAULT_STATE_BUDGET) {
        Err(SgError::Inconsistent { .. }) => shape.explore(sg, true, DEFAULT_STATE_BUDGET),
        done => done,
    }
}

/// Role bits of a parent event in [`insert_series_pair`]'s product.
const IS_X: u8 = 1;
const IS_Y: u8 = 2;
const WAITS_X: u8 = 4;
const WAITS_Y: u8 = 8;

/// One state-signal insertion over a parent STG.
struct SeriesPair<'a> {
    stg: &'a Stg,
    /// Name of the inserted signal.
    name: &'a str,
    /// Per parent event: `IS_X`/`IS_Y` if it is `x`/`y`,
    /// `WAITS_X`/`WAITS_Y` if it consumes a place of `E_x`/`E_y`.
    role: Vec<u8>,
}

impl<'a> SeriesPair<'a> {
    fn new(stg: &'a Stg, name: &'a str, x: TransitionId, y: TransitionId) -> Result<Self> {
        if x == y {
            return Err(SgError::Invalid("both edges after one event".into()));
        }
        if stg.has_toggle_transitions() {
            return Err(SgError::Invalid("toggle edges: build in full".into()));
        }
        if stg.signal_by_name(name).is_some() {
            return Err(PetriError::DuplicateName(name.to_string()).into());
        }
        if stg.num_signals() >= 64 {
            return Err(SgError::TooManySignals(stg.num_signals() + 1));
        }
        let net = stg.net();
        let mut role = vec![0u8; net.num_transitions()];
        for (after, is, waits) in [(x, IS_X, WAITS_X), (y, IS_Y, WAITS_Y)] {
            role[after.index()] |= is;
            for p in series_places(stg, after)? {
                for &u in net.consumers(p) {
                    role[u.index()] |= waits;
                }
            }
        }
        Ok(SeriesPair { stg, name, role })
    }

    /// Breadth-first product from the parent's initial state with the
    /// new bit set to `v0`. Slot `4s + 2a + b` indexes `(s, a, b)`.
    fn explore(&self, sg: &StateGraph, v0: bool, budget: usize) -> Result<StateGraph> {
        // The rewrite appends the signal, then `name+` and its link
        // place, then `name-` and its link place.
        let signal = SignalId::from_index(self.stg.num_signals());
        let bit = 1u64 << signal.index();
        let n = self.stg.net().num_transitions() as u32;
        let inserted = [EventId(n), EventId(n + 1)];
        let np = self.stg.net().num_places();
        let links = [PlaceId::from_index(np), PlaceId::from_index(np + 1)];
        let mut ids = vec![u32::MAX; 4 * sg.num_states()];
        let mut slots: Vec<usize> = Vec::new();
        let mut codes: Vec<u64> = Vec::new();
        let mut visit = |slots: &mut Vec<usize>, codes: &mut Vec<u64>, slot: usize, code: u64| {
            let id = ids[slot];
            if id == u32::MAX {
                if slots.len() >= budget {
                    return Err(SgError::Petri(PetriError::StateBudgetExceeded(budget)));
                }
                ids[slot] = slots.len() as u32;
                slots.push(slot);
                codes.push(code);
                Ok(slots.len() as u32 - 1)
            } else if codes[id as usize] != code {
                Err(self.inconsistent("one marking is reached with both values"))
            } else {
                Ok(id)
            }
        };
        let v0_bit = if v0 { bit } else { 0 };
        visit(&mut slots, &mut codes, 0, sg.code(0) | v0_bit)?;
        let mut succ_offsets = vec![0u32];
        let mut arc_events: Vec<EventId> = Vec::new();
        let mut arc_targets: Vec<StateId> = Vec::new();
        let mut head = 0;
        while head < slots.len() {
            let slot = slots[head];
            let code = codes[head];
            head += 1;
            let (s, a, b) = (slot / 4, slot & 2 != 0, slot & 1 != 0);
            for (e, t) in sg.succ(s as StateId) {
                let r = self.role[e.index()];
                if (a && r & WAITS_X != 0) || (b && r & WAITS_Y != 0) {
                    continue;
                }
                // A 1-safe parent never lets `x` refire here (it would
                // refill `E_x`, which only blocked events empty): this
                // rejects a parent graph that is not its net's.
                if (a && r & IS_X != 0) || (b && r & IS_Y != 0) {
                    let i = usize::from(r & IS_X == 0);
                    return Err(SgError::Petri(PetriError::UnsafePlace {
                        place: links[i],
                        transition: TransitionId::from_index(e.index()),
                    }));
                }
                let na = a || r & IS_X != 0;
                let nb = b || r & IS_Y != 0;
                let next = 4 * t as usize + 2 * usize::from(na) + usize::from(nb);
                let target = visit(&mut slots, &mut codes, next, sg.code(t) | (code & bit))?;
                arc_events.push(e);
                arc_targets.push(target);
            }
            // At most one inserted edge fires from an accepted state:
            // with both pending, one of them contradicts `v`.
            if a {
                if code & bit != 0 {
                    return Err(self.inconsistent("it rises while already 1"));
                }
                let target = visit(&mut slots, &mut codes, slot & !2, code | bit)?;
                arc_events.push(inserted[0]);
                arc_targets.push(target);
            }
            if b {
                if code & bit == 0 {
                    return Err(self.inconsistent("it falls while already 0"));
                }
                let target = visit(&mut slots, &mut codes, slot & !1, code & !bit)?;
                arc_events.push(inserted[1]);
                arc_targets.push(target);
            }
            succ_offsets.push(arc_events.len() as u32);
        }
        let mut signals = signal_table(self.stg);
        signals.push(Signal {
            name: self.name.to_string(),
            kind: SignalKind::Internal,
        });
        let mut events = event_table(self.stg);
        events.extend([Polarity::Rise, Polarity::Fall].map(|polarity| EventInfo {
            label: format!("{}{}", self.name, polarity.suffix()),
            edge: Some(SignalEdge { signal, polarity }),
        }));
        StateGraph::from_csr(
            self.stg.name.clone(),
            signals,
            events,
            codes,
            succ_offsets,
            arc_events,
            arc_targets,
        )
    }

    fn inconsistent(&self, witness: &str) -> SgError {
        SgError::Inconsistent {
            signal: self.name.to_string(),
            witness: format!("inserted signal {}: {witness}", self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_state_graph;
    use crate::csc::analyze_csc;
    use crate::props::speed_independence;
    use crate::sg::tests::from_lists;
    use reshuffle_petri::parse_g;
    use reshuffle_petri::structural::insert_state_signal;

    /// Mirror of the paper's Fig. 1: `Req` is the circuit's output, and
    /// the spec allows `Req+` concurrent with `Ack-`.
    const MFIG1: &str = "\
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

    #[test]
    fn product_matches_full_rebuild() {
        let stg = parse_g(MFIG1).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        assert_eq!(sg.num_states(), 5);
        let am = stg.transition_by_label("Ack-").unwrap();
        let rp = stg.transition_by_label("Req+").unwrap();
        let reduced = restrict_with_place(&sg, EventId(am.0), EventId(rp.0)).unwrap();

        // Reference: rewrite the STG and rebuild from scratch.
        let mut stg2 = stg.clone();
        stg2.connect(am, rp).unwrap();
        let rebuilt = build_state_graph(&stg2).unwrap();
        assert_eq!(reduced, rebuilt);

        // The serialization dissolved the CSC conflict and kept SI.
        assert_eq!(analyze_csc(&reduced).num_csc_conflicts(), 0);
        assert!(speed_independence(&reduced).is_speed_independent());
    }

    #[test]
    fn reverse_serialization_traps_the_graph() {
        // Ordering Ack- after Req+ (delaying the input) removes the
        // other diamond path; the product is still well-formed.
        let stg = parse_g(MFIG1).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        let am = stg.transition_by_label("Ack-").unwrap();
        let rp = stg.transition_by_label("Req+").unwrap();
        let reduced = restrict_with_place(&sg, EventId(rp.0), EventId(am.0)).unwrap();
        assert_eq!(reduced.num_states(), 4);
        assert!(reduced.deadlock_states().is_empty());
    }

    #[test]
    fn unsafe_rewrite_is_rejected() {
        // Producing from an event that can fire twice before the
        // consumer (b+ produces, a- consumes) overfills the place.
        let src = "\
.model conc
.inputs a
.outputs b
.graph
p0 a+
p1 b+
a+ a-
b+ b-
a- p0
b- p1
.marking { p0 p1 }
.end
";
        let stg = parse_g(src).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        let bp = stg.transition_by_label("b+").unwrap();
        let am = stg.transition_by_label("a-").unwrap();
        let e = restrict_with_place(&sg, EventId(bp.0), EventId(am.0));
        assert!(matches!(e, Err(SgError::Invalid(_))), "{e:?}");
    }

    #[test]
    fn producer_consumer_overlap_rejected() {
        let stg = parse_g(MFIG1).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        let rp = stg.transition_by_label("Req+").unwrap();
        let e = restrict_with_place(&sg, EventId(rp.0), EventId(rp.0));
        assert!(matches!(e, Err(SgError::Invalid(_))));
    }

    /// Signal `csc` rising after `x` and falling after `y`: the graph
    /// product over `sg`, and the full build of the rewritten STG.
    fn series_pair(
        sg: &StateGraph,
        stg: &Stg,
        x: &str,
        y: &str,
    ) -> (Result<StateGraph>, Result<StateGraph>) {
        let x = stg.transition_by_label(x).unwrap();
        let y = stg.transition_by_label(y).unwrap();
        let full = insert_state_signal(stg, "csc", x, y)
            .map_err(SgError::from)
            .and_then(|(cand, _, _)| build_state_graph(&cand));
        (insert_series_pair(sg, stg, "csc", x, y), full)
    }

    /// The sequential Q-module handshake: one CSC conflict.
    const QMODULE: &str = "\
.model qmodule
.inputs li ri
.outputs lo ro
.graph
li+ ro+
ro+ ri+
ri+ ro-
ro- ri-
ri- lo+
lo+ li-
li- lo-
lo- li+
.marking { <lo-,li+> }
.end
";

    /// An output choice after `a+`: either `b` or `c` pulses.
    const CHOICE: &str = "\
.model choice
.inputs a
.outputs b c
.graph
a+ p1
p1 b+ c+
b+ b-
c+ c-
b- p2
c- p2
p2 a-
a- a+
.marking { <a-,a+> }
.end
";

    #[test]
    fn series_pair_matches_full_rebuild() {
        let stg = parse_g(QMODULE).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        // csc+ after ri+, csc- after li-: the insertion that separates
        // the conflicting states.
        let (derived, rebuilt) = series_pair(&sg, &stg, "ri+", "li-");
        let derived = derived.unwrap();
        assert_eq!(derived.num_states(), 10);
        assert_eq!(derived, rebuilt.unwrap());
        assert_eq!(analyze_csc(&derived).num_csc_conflicts(), 0);

        // The new signal starts at 1 when its fall comes first.
        let (derived, rebuilt) = series_pair(&sg, &stg, "li-", "ri+");
        let derived = derived.unwrap();
        let csc = derived.signal_by_name("csc").unwrap();
        assert!(derived.value(derived.initial(), csc));
        assert_eq!(derived, rebuilt.unwrap());
    }

    #[test]
    fn refused_rewrites_are_refused_by_the_product() {
        let stg = parse_g(QMODULE).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        let t = |label: &str| stg.transition_by_label(label).unwrap();
        // `ro+`'s only successor is the input `ri+`: nothing to reroute.
        let (derived, full) = series_pair(&sg, &stg, "ro+", "li-");
        let e = derived.unwrap_err();
        assert!(
            matches!(e, SgError::Petri(PetriError::Structural(_))),
            "{e:?}"
        );
        assert_eq!(full.unwrap_err(), e);
        // A taken name.
        let e = insert_series_pair(&sg, &stg, "lo", t("ri+"), t("li-")).unwrap_err();
        assert_eq!(e, SgError::Petri(PetriError::DuplicateName("lo".into())));
        assert!(insert_state_signal(&stg, "lo", t("ri+"), t("li-")).is_err());
        // One event twice.
        let e = insert_series_pair(&sg, &stg, "csc", t("ri+"), t("ri+")).unwrap_err();
        assert!(matches!(e, SgError::Invalid(_)), "{e:?}");
    }

    #[test]
    fn repeated_rise_is_rejected() {
        // csc+ after a+ fires every cycle, csc- after b+ only when the
        // choice takes b: two rises in a row.
        let stg = parse_g(CHOICE).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        let (derived, full) = series_pair(&sg, &stg, "a+", "b+");
        let e = derived.unwrap_err();
        assert!(
            matches!(&e, SgError::Inconsistent { witness, .. } if witness.contains("rises while already 1")),
            "{e:?}"
        );
        let full = full.unwrap_err();
        assert!(matches!(full, SgError::Inconsistent { .. }), "{full:?}");
    }

    #[test]
    fn two_codes_at_one_state_are_rejected() {
        // csc+ after b+ flips the bit on one branch only: the branches
        // merge at one marking with both values.
        let stg = parse_g(CHOICE).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        let (derived, full) = series_pair(&sg, &stg, "b+", "a+");
        let e = derived.unwrap_err();
        assert!(
            matches!(&e, SgError::Inconsistent { witness, .. } if witness.contains("both values")),
            "{e:?}"
        );
        let full = full.unwrap_err();
        assert!(matches!(full, SgError::Inconsistent { .. }), "{full:?}");
    }

    #[test]
    fn unsafe_link_place_is_rejected() {
        // x = ri+ fires again while csc+ is pending. A 1-safe parent
        // never lets it (x would refill the places it marked, which
        // only blocked events consume), so no full build of a candidate
        // over a buildable parent fails this way; the rule guards a
        // parent graph that is not its net's. Here the parent graph
        // lets ri+ fire twice.
        let stg = parse_g(QMODULE).unwrap();
        let real = build_state_graph(&stg).unwrap();
        let event = |label: &str| EventId(stg.transition_by_label(label).unwrap().0);
        let mut after_x = real.initial();
        for label in ["li+", "ro+", "ri+"] {
            after_x = real.step(after_x, event(label)).unwrap();
        }
        let states = real
            .state_ids()
            .map(|s| {
                let mut succ: Vec<(EventId, StateId)> = real.succ(s).iter().collect();
                if s == after_x {
                    succ.push((event("ri+"), s));
                    succ.sort_unstable();
                }
                (real.code(s), succ)
            })
            .collect();
        let sg = from_lists(
            "refire",
            real.signals().to_vec(),
            real.events().to_vec(),
            states,
        )
        .unwrap();
        let (derived, _) = series_pair(&sg, &stg, "ri+", "li-");
        let e = derived.unwrap_err();
        assert!(
            matches!(e, SgError::Petri(PetriError::UnsafePlace { .. })),
            "{e:?}"
        );
    }

    #[test]
    fn budget_and_toggles_are_refused() {
        let stg = parse_g(QMODULE).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        let ri = stg.transition_by_label("ri+").unwrap();
        let li = stg.transition_by_label("li-").unwrap();
        let e = SeriesPair::new(&stg, "csc", ri, li)
            .and_then(|shape| shape.explore(&sg, false, 9))
            .unwrap_err();
        assert_eq!(e, SgError::Petri(PetriError::StateBudgetExceeded(9)));
        let opts = crate::BuildOptions {
            state_budget: 9,
            ..Default::default()
        };
        let (cand, _, _) = insert_state_signal(&stg, "csc", ri, li).unwrap();
        assert!(crate::build_state_graph_with(&cand, &opts).is_err());

        // Toggle edges unfold parity: the product refuses, the search
        // builds such candidates in full.
        let two_phase = parse_g(
            ".model t\n.inputs a\n.outputs b c\n.graph\na~ b~\nb~ c~\nc~ a~\n\
             .marking { <c~,a~> }\n.end\n",
        )
        .unwrap();
        let sg = build_state_graph(&two_phase).unwrap();
        let (derived, _) = series_pair(&sg, &two_phase, "b~", "a~");
        assert!(matches!(derived, Err(SgError::Invalid(_))), "{derived:?}");
    }
}
