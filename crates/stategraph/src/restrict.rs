//! Incremental state-graph re-derivation after a local STG rewrite.
//!
//! Concurrency reduction (Section 4) rewrites the STG by adding one
//! fresh 1-safe place `p` with arcs `from -> p -> to`, so `to` now also
//! waits for a token produced by `from`. The state graph of the
//! rewritten STG is exactly the synchronous product of the original
//! graph with the two-state automaton tracking `p`'s token count —
//! binary codes, the event table and speed-independence-relevant
//! structure all carry over. [`restrict_with_place`] builds that product
//! directly from the already-explored graph, skipping the Petri-net
//! token game and initial-value inference that dominate a full
//! [`build_state_graph`](crate::build_state_graph) run.
//!
//! CSC resolution rewrites the STG by inserting a state signal's two
//! edges in series after two events. [`insert_series_pair`] derives
//! that candidate's graph the same way, as the product of the parent
//! graph with a small automaton tracking the pending edges and the new
//! code bit.

use std::collections::HashMap;

use reshuffle_petri::{PetriError, PlaceId, Polarity, Stg, TransitionId, DEFAULT_STATE_BUDGET};

use crate::build::{event_table, signal_table};
use crate::error::{Result, SgError};
use crate::sg::{EventId, State, StateGraph, StateId};

/// Re-derives the state graph after adding one fresh, initially
/// unmarked, 1-safe place whose producing events are `producers` and
/// whose consuming events are `consumers`.
///
/// States of the result are `(original state, token count)` pairs
/// reachable from `(initial, 0)`; codes are inherited from the original
/// states. Arcs labelled with a consumer event are dropped while the
/// place is empty — that is the serialization.
///
/// # Errors
///
/// * [`SgError::Invalid`] if a producer fires while the place already
///   holds a token (the rewrite would make the net unsafe), or if an
///   event is listed as both producer and consumer.
pub fn restrict_with_place(
    sg: &StateGraph,
    producers: &[EventId],
    consumers: &[EventId],
) -> Result<StateGraph> {
    if producers.iter().any(|e| consumers.contains(e)) {
        return Err(SgError::Invalid(
            "an event cannot both produce and consume the serializing place".into(),
        ));
    }
    // (original state, token) -> new dense id.
    let mut index: HashMap<(StateId, bool), StateId> = HashMap::new();
    let mut nodes: Vec<(StateId, bool)> = vec![(sg.initial(), false)];
    index.insert((sg.initial(), false), 0);
    let mut succ: Vec<Vec<(EventId, StateId)>> = vec![Vec::new()];
    let mut work = vec![0 as StateId];
    while let Some(s) = work.pop() {
        let (orig, tok) = nodes[s as usize];
        for (e, t) in sg.succ(orig) {
            let consumes = consumers.contains(&e);
            if consumes && !tok {
                continue; // the serialization: `e` must wait for a token
            }
            let produces = producers.contains(&e);
            if produces && tok {
                return Err(SgError::Invalid(format!(
                    "serializing place becomes unsafe: {} fires with a token pending",
                    sg.event(e).label
                )));
            }
            let ntok = (tok && !consumes) || produces;
            let key = (t, ntok);
            let id = match index.get(&key) {
                Some(&id) => id,
                None => {
                    let id = nodes.len() as StateId;
                    nodes.push(key);
                    index.insert(key, id);
                    succ.push(Vec::new());
                    work.push(id);
                    id
                }
            };
            succ[s as usize].push((e, id));
        }
    }
    let states: Vec<State> = nodes
        .iter()
        .zip(succ)
        .map(|(&(orig, _), succ)| State {
            code: sg.code(orig),
            succ,
        })
        .collect();
    StateGraph::from_parts(
        sg.name().to_string(),
        sg.signals().to_vec(),
        sg.events().to_vec(),
        states,
        0,
    )
}

/// Derives the state graph of `cand` from the state graph `sg` of the
/// STG it was made from, where `cand` adds one internal signal whose
/// rising edge `rise` is inserted in series after one event `x` and
/// whose falling edge `fall` after another event `y`
/// ([`insert_series_transition`](reshuffle_petri::structural::insert_series_transition)).
///
/// Call `E_x` the places rerouted from `x` to `rise` (its postset), and
/// `E_y` those rerouted from `y` to `fall`. A state of the result is a
/// parent state `s`, two flags `a` (`rise` pending: `x` fired, `rise`
/// not yet) and `b` (`fall` pending), and the new code bit `v`:
///
/// * a parent arc `s -e-> t` is kept unless `e` consumes a place of
///   `E_x` while `a` is set, or of `E_y` while `b` is set; `x` sets `a`
///   and `y` sets `b`;
/// * `rise` fires while `a` is set and clears it, setting `v`; `fall`
///   fires while `b` is set and clears it, clearing `v`.
///
/// The product is exact for a 1-safe, consistent parent without toggle
/// edges, whose states correspond one to one to its markings: while
/// `rise` is pending every place of `E_x` is empty in `cand`'s net and
/// marked in the parent's marking, every other place agrees, so `cand`'s
/// reachable markings are exactly the product's `(s, a, b)` triples.
/// Codes are the parent's plus `v`; the event table and signals are
/// `cand`'s. States are numbered in breadth-first order over arcs in
/// event order — the numbering a full
/// [`build_state_graph`](crate::build_state_graph) of `cand` produces,
/// so the result equals that build, code for code and arc for arc.
///
/// The initial value of the new signal is inferred as the full build
/// does: the product is explored from `v = 0`, and again from `v = 1`
/// if that contradicts.
///
/// # Errors
///
/// Rejects the candidate exactly when the full build of `cand` would:
///
/// * [`SgError::Petri`] with [`PetriError::UnsafePlace`] if `x` fires
///   while `rise` is pending (or `y` while `fall` is), which puts a
///   second token on the link place (a 1-safe parent never lets it, so
///   this rejects only a parent graph that is not its STG's);
/// * [`SgError::Inconsistent`] if, from either initial value, `rise`
///   fires with `v = 1`, `fall` fires with `v = 0`, or one `(s, a, b)`
///   is reached with both values of `v`;
/// * [`SgError::Petri`] with [`PetriError::StateBudgetExceeded`] if more
///   than [`DEFAULT_STATE_BUDGET`] states are reachable (the budget of
///   [`build_state_graph`](crate::build_state_graph));
/// * [`SgError::TooManySignals`] if `cand` has more than 64 signals.
///
/// [`SgError::Invalid`] reports a `cand` that is not such an insertion
/// over `sg`'s STG, or that has toggle edges (build those in full).
pub fn insert_series_pair(
    sg: &StateGraph,
    cand: &Stg,
    rise: TransitionId,
    fall: TransitionId,
) -> Result<StateGraph> {
    let shape = SeriesPair::of(sg, cand, rise, fall)?;
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

/// The checked shape of one series-pair insertion.
struct SeriesPair<'a> {
    cand: &'a Stg,
    /// Name of the inserted signal (for error reports).
    name: &'a str,
    /// Per parent event: `IS_X`/`IS_Y` if it is `x`/`y`,
    /// `WAITS_X`/`WAITS_Y` if it consumes a place of `E_x`/`E_y`.
    role: Vec<u8>,
    /// The events of `[rise, fall]`, and their link places.
    inserted: [EventId; 2],
    links: [PlaceId; 2],
    bit: u64,
}

impl<'a> SeriesPair<'a> {
    fn of(
        sg: &StateGraph,
        cand: &'a Stg,
        rise: TransitionId,
        fall: TransitionId,
    ) -> Result<SeriesPair<'a>> {
        let invalid = |why: &str| {
            Err(SgError::Invalid(format!(
                "not a series-pair insertion: {why}"
            )))
        };
        if cand.num_signals() > 64 {
            return Err(SgError::TooManySignals(cand.num_signals()));
        }
        let parent_events = sg.num_events();
        let signal = match (cand.edge_of(rise), cand.edge_of(fall)) {
            (Some(r), Some(f))
                if r.signal == f.signal
                    && r.polarity == Polarity::Rise
                    && f.polarity == Polarity::Fall =>
            {
                r.signal
            }
            _ => return invalid("the inserted transitions are not one signal's rise and fall"),
        };
        if cand.num_signals() != sg.num_signals() + 1
            || signal.index() != sg.num_signals()
            || cand.net().num_transitions() != parent_events + 2
            || rise.index() < parent_events
            || fall.index() < parent_events
        {
            return invalid("the candidate must add one signal and its two transitions");
        }
        if cand.has_toggle_transitions() {
            return invalid("toggle edges unfold parity; build the candidate in full");
        }
        let net = cand.net();
        let mut role = vec![0u8; parent_events];
        let mut links = [PlaceId::from_index(0); 2];
        for (i, (t, is, waits)) in [(rise, IS_X, WAITS_X), (fall, IS_Y, WAITS_Y)]
            .into_iter()
            .enumerate()
        {
            let &[link] = net.preset(t) else {
                return invalid("an inserted transition must have one input place");
            };
            let &[after] = net.producers(link) else {
                return invalid("a link place must have one producer");
            };
            let Some(r) = role.get_mut(after.index()) else {
                return invalid("a link place must be produced by a parent event");
            };
            *r |= is;
            links[i] = link;
            for &p in net.postset(t) {
                for &u in net.consumers(p) {
                    if let Some(r) = role.get_mut(u.index()) {
                        *r |= waits;
                    }
                }
            }
        }
        Ok(SeriesPair {
            cand,
            name: &cand.signal(signal).name,
            role,
            inserted: [EventId(rise.0), EventId(fall.0)],
            links,
            bit: 1u64 << signal.index(),
        })
    }

    /// Breadth-first product from the parent's initial state with the
    /// new bit set to `v0`. Slot `4s + 2a + b` indexes `(s, a, b)`.
    fn explore(&self, sg: &StateGraph, v0: bool, budget: usize) -> Result<StateGraph> {
        let bit = self.bit;
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
        let initial = sg.initial();
        let v0_bit = if v0 { bit } else { 0 };
        visit(
            &mut slots,
            &mut codes,
            4 * initial as usize,
            sg.code(initial) | v0_bit,
        )?;
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
                        place: self.links[i],
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
                arc_events.push(self.inserted[0]);
                arc_targets.push(target);
            }
            if b {
                if code & bit == 0 {
                    return Err(self.inconsistent("it falls while already 0"));
                }
                let target = visit(&mut slots, &mut codes, slot & !1, code & !bit)?;
                arc_events.push(self.inserted[1]);
                arc_targets.push(target);
            }
            succ_offsets.push(arc_events.len() as u32);
        }
        StateGraph::from_csr(
            self.cand.name.clone(),
            signal_table(self.cand),
            event_table(self.cand),
            codes,
            succ_offsets,
            arc_events,
            arc_targets,
            0,
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
    use reshuffle_petri::parse_g;

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
        let reduced = restrict_with_place(&sg, &[EventId(am.0)], &[EventId(rp.0)]).unwrap();

        // Reference: rewrite the STG and rebuild from scratch.
        let mut stg2 = stg.clone();
        reshuffle_petri::structural::insert_causal_place(&mut stg2, am, rp).unwrap();
        let rebuilt = build_state_graph(&stg2).unwrap();
        assert_eq!(reduced.num_states(), rebuilt.num_states());
        assert_eq!(reduced.num_arcs(), rebuilt.num_arcs());
        assert_eq!(reduced.fingerprint(), rebuilt.fingerprint());

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
        let reduced = restrict_with_place(&sg, &[EventId(rp.0)], &[EventId(am.0)]).unwrap();
        assert_eq!(reduced.num_states(), 4);
        assert!(reduced.deadlock_states().is_empty());
    }

    #[test]
    fn unsafe_rewrite_is_rejected() {
        // Producing from an event that can fire twice before the
        // consumer (b+ then b- produce, a- consumes) overfills the place.
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
        let bm = stg.transition_by_label("b-").unwrap();
        let am = stg.transition_by_label("a-").unwrap();
        let e = restrict_with_place(&sg, &[EventId(bp.0), EventId(bm.0)], &[EventId(am.0)]);
        assert!(matches!(e, Err(SgError::Invalid(_))), "{e:?}");
    }

    #[test]
    fn producer_consumer_overlap_rejected() {
        let stg = parse_g(MFIG1).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        let rp = stg.transition_by_label("Req+").unwrap();
        let e = restrict_with_place(&sg, &[EventId(rp.0)], &[EventId(rp.0)]);
        assert!(matches!(e, Err(SgError::Invalid(_))));
    }

    /// The candidate the CSC search builds for `(x, y)`: signal `csc`
    /// rising after `x` and falling after `y`, never delaying an input.
    fn series_pair(stg: &Stg, x: &str, y: &str) -> (Stg, TransitionId, TransitionId) {
        use reshuffle_petri::structural::insert_series_transition;
        let mut cand = stg.clone();
        let sig = cand
            .add_signal("csc", reshuffle_petri::SignalKind::Internal)
            .unwrap();
        let keep = |g: &Stg, t: TransitionId| !g.is_input_transition(t);
        let x = stg.transition_by_label(x).unwrap();
        let y = stg.transition_by_label(y).unwrap();
        let rise = insert_series_transition(&mut cand, x, sig, Polarity::Rise, keep).unwrap();
        let fall = insert_series_transition(&mut cand, y, sig, Polarity::Fall, keep).unwrap();
        (cand, rise, fall)
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
        let (cand, rise, fall) = series_pair(&stg, "ri+", "li-");
        let derived = insert_series_pair(&sg, &cand, rise, fall).unwrap();
        let rebuilt = build_state_graph(&cand).unwrap();
        assert_eq!(derived.num_states(), 10);
        assert_eq!(derived.fingerprint(), rebuilt.fingerprint());
        // Same numbering, too: the derived graph is the full build.
        assert_eq!(derived.codes(), rebuilt.codes());
        for s in derived.state_ids() {
            assert_eq!(
                derived.succ(s).iter().collect::<Vec<_>>(),
                rebuilt.succ(s).iter().collect::<Vec<_>>()
            );
        }
        assert_eq!(analyze_csc(&derived).num_csc_conflicts(), 0);

        // The new signal starts at 1 when its fall comes first.
        let (cand, rise, fall) = series_pair(&stg, "li-", "ri+");
        let derived = insert_series_pair(&sg, &cand, rise, fall).unwrap();
        let rebuilt = build_state_graph(&cand).unwrap();
        let csc = derived.signal_by_name("csc").unwrap();
        assert!(derived.value(derived.initial(), csc));
        assert_eq!(derived.fingerprint(), rebuilt.fingerprint());
    }

    #[test]
    fn repeated_rise_is_rejected() {
        // csc+ after a+ fires every cycle, csc- after b+ only when the
        // choice takes b: two rises in a row.
        let stg = parse_g(CHOICE).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        let (cand, rise, fall) = series_pair(&stg, "a+", "b+");
        let e = insert_series_pair(&sg, &cand, rise, fall).unwrap_err();
        assert!(
            matches!(&e, SgError::Inconsistent { witness, .. } if witness.contains("rises while already 1")),
            "{e:?}"
        );
        let full = build_state_graph(&cand).unwrap_err();
        assert!(matches!(full, SgError::Inconsistent { .. }), "{full:?}");
    }

    #[test]
    fn two_codes_at_one_state_are_rejected() {
        // csc+ after b+ flips the bit on one branch only: the branches
        // merge at one marking with both values.
        let stg = parse_g(CHOICE).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        let (cand, rise, fall) = series_pair(&stg, "b+", "a+");
        let e = insert_series_pair(&sg, &cand, rise, fall).unwrap_err();
        assert!(
            matches!(&e, SgError::Inconsistent { witness, .. } if witness.contains("both values")),
            "{e:?}"
        );
        let full = build_state_graph(&cand).unwrap_err();
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
                }
                State {
                    code: real.code(s),
                    succ,
                }
            })
            .collect();
        let sg = StateGraph::from_parts(
            "refire",
            real.signals().to_vec(),
            real.events().to_vec(),
            states,
            real.initial(),
        )
        .unwrap();
        let (cand, rise, fall) = series_pair(&stg, "ri+", "li-");
        let e = insert_series_pair(&sg, &cand, rise, fall).unwrap_err();
        assert!(
            matches!(e, SgError::Petri(PetriError::UnsafePlace { .. })),
            "{e:?}"
        );
    }

    #[test]
    fn budget_and_toggles_are_refused() {
        let stg = parse_g(QMODULE).unwrap();
        let sg = build_state_graph(&stg).unwrap();
        let (cand, rise, fall) = series_pair(&stg, "ri+", "li-");
        let e = SeriesPair::of(&sg, &cand, rise, fall)
            .and_then(|shape| shape.explore(&sg, false, 9))
            .unwrap_err();
        assert_eq!(e, SgError::Petri(PetriError::StateBudgetExceeded(9)));
        let opts = crate::BuildOptions {
            state_budget: 9,
            ..Default::default()
        };
        assert!(crate::build_state_graph_with(&cand, &opts).is_err());

        // Toggle edges unfold parity: the product refuses, the search
        // builds such candidates in full.
        let two_phase = parse_g(
            ".model t\n.inputs a\n.outputs b c\n.graph\na~ b~\nb~ c~\nc~ a~\n\
             .marking { <c~,a~> }\n.end\n",
        )
        .unwrap();
        let sg = build_state_graph(&two_phase).unwrap();
        let (cand, rise, fall) = series_pair(&two_phase, "b~", "a~");
        let e = insert_series_pair(&sg, &cand, rise, fall).unwrap_err();
        assert!(matches!(e, SgError::Invalid(_)), "{e:?}");
    }
}
