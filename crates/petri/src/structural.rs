//! Structural (syntax-level) transformations on STGs.
//!
//! These are the building blocks of handshake expansion (Section 4 of
//! the paper) and of STG-level concurrency reduction: inserting a causal
//! place between two events, inserting a transition in series after an
//! event, and dropping unused places.

use crate::error::{PetriError, Result};
use crate::ids::{PlaceId, SignalId, TransitionId};
use crate::marking::Marking;
use crate::stg::{Polarity, SignalEdge, Stg, TransLabel};

/// Inserts a causal constraint *"`to` waits for `from`"*: a fresh place
/// with arcs `from -> p -> to`. This is the STG counterpart of forward
/// concurrency reduction `FwdRed(to, from)` in the simple persistent
/// case (Section 6).
///
/// # Errors
///
/// Returns an error if the place/arcs already exist.
pub fn insert_causal_place(stg: &mut Stg, from: TransitionId, to: TransitionId) -> Result<PlaceId> {
    stg.connect(from, to)
}

/// Inserts a new transition labelled `signal`/`polarity` in series after
/// `after`: all postset places of `after` whose consumers are **all**
/// accepted by `keep` are re-routed to be produced by the new transition,
/// and a fresh place connects `after` to the new transition.
///
/// Used for state-signal insertion (`csc+` after event x): the new event
/// then precedes every successor of `after` routed through it.
///
/// Returns the new transition.
///
/// # Errors
///
/// Returns [`PetriError::Structural`] if no postset place of `after` is
/// eligible (the insertion would leave the new transition with no
/// successors, i.e. dangling).
pub fn insert_series_transition(
    stg: &mut Stg,
    after: TransitionId,
    signal: SignalId,
    polarity: Polarity,
    keep: impl Fn(&Stg, TransitionId) -> bool,
) -> Result<TransitionId> {
    // Decide which postset places to reroute before mutating.
    let eligible: Vec<PlaceId> = stg
        .net()
        .postset(after)
        .iter()
        .copied()
        .filter(|&p| {
            let consumers = stg.net().consumers(p);
            !consumers.is_empty() && consumers.iter().all(|&u| keep(stg, u))
        })
        .collect();
    if eligible.is_empty() {
        return Err(PetriError::Structural(format!(
            "no postset place of {} is eligible for series insertion",
            stg.transition_name(after)
        )));
    }
    let new_t = stg.add_edge_transition(signal, polarity);
    for p in &eligible {
        stg.net_mut().remove_arc_tp(after, *p);
        stg.arc_tp(new_t, *p)?;
    }
    let link = stg.add_place();
    stg.arc_tp(after, link)?;
    stg.arc_pt(link, new_t)?;
    Ok(new_t)
}

/// The four protocol transitions of one expanded handshake channel.
#[derive(Debug, Clone, Copy)]
pub struct ChannelExpansion {
    /// `req+` (the relabelled `req~`).
    pub req_rise: TransitionId,
    /// The fresh `req-` return-to-zero transition.
    pub req_fall: TransitionId,
    /// `ack+` (the relabelled `ack~`).
    pub ack_rise: TransitionId,
    /// The fresh `ack-` return-to-zero transition.
    pub ack_fall: TransitionId,
}

/// Expands the declared handshake channel at `channel` from its
/// two-phase (toggle) form to the four-phase protocol, leaving the
/// return-to-zero edges *maximally concurrent*: `req~`/`ack~` are
/// relabelled `req+`/`ack+` in place (keeping their causal context),
/// fresh `req-`/`ack-` transitions are constrained only by the protocol
/// arcs `ack+ -> req- -> ack- -> req+`, and the `ack- -> req+` idle
/// place starts marked so the first handshake can begin. The channel is
/// removed from the declaration list — its ordering is now (maximally
/// concurrently) committed; reshuffling enumeration serializes from
/// here.
///
/// Assumes the channel starts *idle* (the initial marking precedes its
/// `req~`); a mid-handshake initial marking makes the expanded net
/// unsafe or inconsistent, which the state-graph builder reports.
///
/// # Errors
///
/// Returns [`PetriError::Structural`] if there is no such channel or if
/// either channel signal does not have exactly one transition, labelled
/// as a toggle.
pub fn expand_channel_four_phase(stg: &mut Stg, channel: usize) -> Result<ChannelExpansion> {
    let Some(&h) = stg.handshakes().get(channel) else {
        return Err(PetriError::Structural(format!(
            "no handshake channel #{channel}"
        )));
    };
    let single_toggle = |stg: &Stg, s: SignalId| -> Result<TransitionId> {
        let all = stg.transitions_of_signal(s);
        let toggles = stg.transitions_of_edge(SignalEdge {
            signal: s,
            polarity: Polarity::Toggle,
        });
        match (all.len(), toggles.as_slice()) {
            (1, &[t]) => Ok(t),
            _ => Err(PetriError::Structural(format!(
                "channel signal `{}` needs exactly one toggle transition \
                 (found {} transitions, {} toggles)",
                stg.signal(s).name,
                all.len(),
                toggles.len()
            ))),
        }
    };
    let req_rise = single_toggle(stg, h.req)?;
    let ack_rise = single_toggle(stg, h.ack)?;
    stg.relabel_transition(req_rise, h.req, Polarity::Rise);
    stg.relabel_transition(ack_rise, h.ack, Polarity::Rise);
    let req_fall = stg.add_edge_transition(h.req, Polarity::Fall);
    let ack_fall = stg.add_edge_transition(h.ack, Polarity::Fall);
    stg.connect(ack_rise, req_fall)?;
    stg.connect(req_fall, ack_fall)?;
    let idle = stg.connect(ack_fall, req_rise)?;
    let mut marked: Vec<PlaceId> = stg.initial_marking().iter().collect();
    marked.push(idle);
    stg.set_initial_places(&marked);
    stg.remove_handshake(channel);
    Ok(ChannelExpansion {
        req_rise,
        req_fall,
        ack_rise,
        ack_fall,
    })
}

/// The image of transition `t` under the signal permutation `perm`
/// (`perm[i]` is the image of signal *i*): the transition carrying the
/// same polarity and instance on the image signal. Dummies map to
/// themselves. `None` if no such transition exists (then `perm` is not
/// an automorphism).
pub fn map_transition(stg: &Stg, t: TransitionId, perm: &[SignalId]) -> Option<TransitionId> {
    match stg.label(t) {
        TransLabel::Dummy { .. } => Some(t),
        TransLabel::Edge { edge, instance } => {
            let image = TransLabel::Edge {
                edge: SignalEdge {
                    signal: perm[edge.signal.index()],
                    polarity: edge.polarity,
                },
                instance: *instance,
            };
            stg.transition_by_label(&stg.render_label(&image))
        }
    }
}

/// The non-identity signal permutations under which the STG is
/// invariant: kind-preserving bijections of signals whose induced
/// transition relabelling (via [`map_transition`]) maps places to
/// places — same producer/consumer sets, same initial tokens — and
/// preserves explicit initial values and declared handshake channels.
///
/// Symmetric halves of a specification (e.g. the two branches of a
/// fork/join, or two interchangeable channels) show up here; the
/// reduction and expansion searches use the permutations to prune
/// mirror-image candidates. Brute-forces kind-class permutations, so it
/// returns the conservative answer (no symmetries) beyond 10 signals.
pub fn signal_automorphisms(stg: &Stg) -> Vec<Vec<SignalId>> {
    let n = stg.num_signals();
    if n == 0 || n > 10 {
        return Vec::new();
    }
    // Group signal indices by kind; candidate permutations permute
    // within groups only.
    let ids: Vec<SignalId> = stg.signals().collect();
    let factorial = |k: usize| (1..=k).product::<usize>();
    let candidates: usize = [
        crate::stg::SignalKind::Input,
        crate::stg::SignalKind::Output,
        crate::stg::SignalKind::Internal,
    ]
    .iter()
    .map(|&kind| factorial(ids.iter().filter(|&&s| stg.signal(s).kind == kind).count()))
    .product();
    if candidates > 5040 {
        return Vec::new(); // conservative: too many kind-class permutations
    }
    let mut perms: Vec<Vec<SignalId>> = vec![ids.clone()];
    for kind_class in [
        crate::stg::SignalKind::Input,
        crate::stg::SignalKind::Output,
        crate::stg::SignalKind::Internal,
    ] {
        let class: Vec<usize> = (0..n)
            .filter(|&i| stg.signal(ids[i]).kind == kind_class)
            .collect();
        let class_perms = permutations(&class);
        let mut next = Vec::new();
        for base in &perms {
            for cp in &class_perms {
                let mut p = base.clone();
                for (slot, &src) in class.iter().zip(cp) {
                    p[*slot] = ids[src];
                }
                next.push(p);
            }
        }
        perms = next;
    }
    perms
        .into_iter()
        .filter(|p| p.iter().zip(&ids).any(|(a, b)| a != b))
        .filter(|p| is_signal_automorphism(stg, p))
        .collect()
}

/// All permutations of `items` (Heap's algorithm, iterative order not
/// guaranteed but deterministic).
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = items.to_vec();
    fn rec(k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(cur.clone());
            return;
        }
        for i in 0..k {
            rec(k - 1, cur, out);
            if k % 2 == 0 {
                cur.swap(i, k - 1);
            } else {
                cur.swap(0, k - 1);
            }
        }
    }
    let k = cur.len();
    rec(k, &mut cur, &mut out);
    if out.is_empty() {
        out.push(Vec::new());
    }
    out
}

/// Checks whether `perm` (image per signal index) preserves the STG.
fn is_signal_automorphism(stg: &Stg, perm: &[SignalId]) -> bool {
    for (i, &img) in perm.iter().enumerate() {
        let src = SignalId::from_index(i);
        if stg.signal(src).kind != stg.signal(img).kind
            || stg.initial_value(src) != stg.initial_value(img)
        {
            return false;
        }
    }
    // The induced transition mapping must be total.
    let mut tmap = Vec::with_capacity(stg.net().num_transitions());
    for t in stg.transitions() {
        match map_transition(stg, t, perm) {
            Some(u) => tmap.push(u),
            None => return false,
        }
    }
    // Handshake channels must map to handshake channels.
    let channels: Vec<(SignalId, SignalId)> =
        stg.handshakes().iter().map(|h| (h.req, h.ack)).collect();
    for h in stg.handshakes() {
        let image = (perm[h.req.index()], perm[h.ack.index()]);
        if !channels.contains(&image) {
            return false;
        }
    }
    // Places must map to places: compare the (producers, consumers,
    // initially-marked) descriptor multisets before and after mapping.
    let m0 = stg.initial_marking();
    let descriptor = |p: PlaceId, map: Option<&[TransitionId]>| {
        let rename = |t: &TransitionId| match map {
            Some(m) => m[t.index()].0,
            None => t.0,
        };
        let mut prod: Vec<u32> = stg.net().producers(p).iter().map(rename).collect();
        let mut cons: Vec<u32> = stg.net().consumers(p).iter().map(rename).collect();
        prod.sort_unstable();
        cons.sort_unstable();
        (prod, cons, m0.contains(p))
    };
    let relevant = || stg.places().filter(|&p| !stg.net().is_isolated_place(p));
    let mut original: Vec<_> = relevant().map(|p| descriptor(p, None)).collect();
    let mut mapped: Vec<_> = relevant().map(|p| descriptor(p, Some(&tmap))).collect();
    original.sort_unstable();
    mapped.sort_unstable();
    original == mapped
}

// --- structural pre-reduction ----------------------------------------

/// What one [`prereduce`] pass removed, by rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrereduceStats {
    /// Total places removed (sum of the per-rule counters).
    pub places_removed: usize,
    /// Total transitions removed (dummy transitions of merged chains).
    pub transitions_removed: usize,
    /// Places removed because a twin with identical producers,
    /// consumers, and initial marking survives.
    pub duplicate_places: usize,
    /// Single-producer/single-consumer places removed because a
    /// token-conserving path of such places already enforces the same
    /// ordering (the redundant-place rule).
    pub shortcut_places: usize,
    /// Marked self-loop places removed (their token never moves and
    /// never disables their transition).
    pub self_loop_places: usize,
    /// Dummy transitions merged out of linear place chains.
    pub dummy_merges: usize,
}

impl PrereduceStats {
    /// True when the pass removed anything.
    pub fn changed(&self) -> bool {
        self.places_removed + self.transitions_removed > 0
    }
}

/// Structural pre-reduction: shrinks the net *before* its state graph
/// is ever built, using only reductions that cannot change observable
/// behavior on 1-safe inputs.
///
/// Three of the rules (duplicate places, shortcut places, marked
/// self-loops) remove places whose marking is a function of the
/// remaining places, so the reachable state graph of the reduced net is
/// isomorphic to the original's — identical state count, codes, arcs,
/// and [`fingerprint`](crate::ReachabilityGraph). The fourth (series
/// dummy merge) contracts an unobservable ε-step and therefore shrinks
/// the state graph while preserving the signal-projected trace
/// language. Partial specifications (open `.handshake` channels or
/// toggle events) are returned untouched: their ordering is not yet
/// committed, and expansion owns their structure.
///
/// The pass iterates the rules to a fixpoint and then compacts the net
/// (ids are dense, so removal is a rebuild); transition labels are
/// preserved verbatim, including instance numbers.
///
/// # Example
///
/// A place ordering `a+` before `b+` is redundant when a chain through
/// `x+` already enforces it — the pass removes it without changing the
/// reachable states:
///
/// ```
/// use reshuffle_petri::{parse_g, structural::prereduce, ReachabilityGraph};
///
/// # fn main() -> Result<(), reshuffle_petri::PetriError> {
/// let mut stg = parse_g(
///     ".model redundant\n.inputs a\n.outputs x b\n.graph\n\
///      a+ x+ b+\nx+ b+\nb+ a-\na- x- b-\nx- b-\nb- a+\n\
///      .marking { <b-,a+> }\n.end\n",
/// )?;
/// let before = ReachabilityGraph::explore_default(stg.net(), &stg.initial_marking())?;
/// let stats = prereduce(&mut stg)?;
/// assert_eq!(stats.shortcut_places, 2); // <a+,b+> and <a-,b->
/// let after = ReachabilityGraph::explore_default(stg.net(), &stg.initial_marking())?;
/// assert_eq!(before.len(), after.len()); // same reachable states
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates arc errors from the final compaction (unreachable when
/// the input net is well-formed).
pub fn prereduce(stg: &mut Stg) -> Result<PrereduceStats> {
    let mut stats = PrereduceStats::default();
    if stg.is_partial() {
        return Ok(stats);
    }
    let mut work = stg.clone();
    let mut dead_p = vec![false; work.net().num_places()];
    let mut dead_t = vec![false; work.net().num_transitions()];
    let mut marking = work.initial_marking();
    loop {
        let mut changed = false;
        changed |= drop_marked_self_loops(&work, &mut dead_p, &marking, &mut stats);
        changed |= drop_duplicate_places(&work, &mut dead_p, &marking, &mut stats);
        changed |= drop_shortcut_places(&work, &mut dead_p, &marking, &mut stats);
        changed |= merge_series_dummies(
            &mut work,
            &mut dead_p,
            &mut dead_t,
            &mut marking,
            &mut stats,
        );
        if !changed {
            break;
        }
    }
    stats.places_removed = dead_p.iter().filter(|&&d| d).count();
    stats.transitions_removed = dead_t.iter().filter(|&&d| d).count();
    if stats.changed() {
        *stg = compact(&work, &marking, &dead_p, &dead_t)?;
    }
    Ok(stats)
}

/// Rule: a *marked* place whose single producer and single consumer are
/// the same transition never changes marking and never disables it.
/// (An unmarked self-loop place means its transition is dead — a
/// semantic property the pass must not erase, so it is kept.)
fn drop_marked_self_loops(
    stg: &Stg,
    dead_p: &mut [bool],
    marking: &Marking,
    stats: &mut PrereduceStats,
) -> bool {
    let net = stg.net();
    let mut changed = false;
    for p in stg.places() {
        if dead_p[p.index()] || !marking.contains(p) {
            continue;
        }
        let (prod, cons) = (net.producers(p), net.consumers(p));
        if prod.len() != 1 || cons != prod {
            continue;
        }
        let t = prod[0];
        // The transition must keep another live preset place, or its
        // firing rule changes (it would become a source transition).
        let other_preset = net.preset(t).iter().any(|&q| q != p && !dead_p[q.index()]);
        if !other_preset {
            continue;
        }
        dead_p[p.index()] = true;
        stats.self_loop_places += 1;
        changed = true;
    }
    changed
}

/// A place's connectivity signature for the duplicate rule: sorted
/// producers, sorted consumers, initially-marked flag.
type PlaceSignature = (Vec<TransitionId>, Vec<TransitionId>, bool);

/// Rule: of two places with identical producer sets, consumer sets, and
/// initial marking, one is redundant — their markings are equal in
/// every reachable marking. The lower-numbered twin survives.
fn drop_duplicate_places(
    stg: &Stg,
    dead_p: &mut [bool],
    marking: &Marking,
    stats: &mut PrereduceStats,
) -> bool {
    let net = stg.net();
    let mut changed = false;
    let descr: Vec<Option<PlaceSignature>> = stg
        .places()
        .map(|p| {
            if dead_p[p.index()] || net.is_isolated_place(p) {
                return None;
            }
            let mut prod = net.producers(p).to_vec();
            let mut cons = net.consumers(p).to_vec();
            prod.sort_unstable();
            cons.sort_unstable();
            Some((prod, cons, marking.contains(p)))
        })
        .collect();
    for (i, d) in descr.iter().enumerate() {
        let Some(d) = d else { continue };
        if dead_p[i] {
            continue;
        }
        for (j, e) in descr.iter().enumerate().skip(i + 1) {
            if dead_p[j] {
                continue;
            }
            if e.as_ref() == Some(d) {
                dead_p[j] = true;
                stats.duplicate_places += 1;
                changed = true;
            }
        }
    }
    changed
}

/// Rule: a place `p` with single producer `a` and single consumer `c`
/// is redundant when a path of single-producer/single-consumer places
/// `q1..qk` leads from `a` to `c` carrying no more initial tokens than
/// `p`. Then `m(p) = Σ m(qi) + m0(p) − Σ m0(qi) ≥ m(qk)` in every
/// reachable marking (the sum telescopes over every firing), so `p`
/// never disables `c` and its marking is derived — removal leaves the
/// reachable graph isomorphic.
fn drop_shortcut_places(
    stg: &Stg,
    dead_p: &mut [bool],
    marking: &Marking,
    stats: &mut PrereduceStats,
) -> bool {
    let net = stg.net();
    let mut changed = false;
    for p in stg.places() {
        if dead_p[p.index()] {
            continue;
        }
        let (prod, cons) = (net.producers(p), net.consumers(p));
        if prod.len() != 1 || cons.len() != 1 || prod[0] == cons[0] {
            continue;
        }
        let (a, c) = (prod[0], cons[0]);
        let budget = marking.contains(p) as usize;
        if shortcut_path_exists(stg, dead_p, marking, p, a, c, budget) {
            dead_p[p.index()] = true;
            stats.shortcut_places += 1;
            changed = true;
        }
    }
    changed
}

/// BFS over (transition, tokens-spent) pairs through live
/// single-producer/single-consumer places other than `p`, looking for
/// an alternative path `a → … → c` with initial-token sum ≤ `budget`.
fn shortcut_path_exists(
    stg: &Stg,
    dead_p: &[bool],
    marking: &Marking,
    p: PlaceId,
    a: TransitionId,
    c: TransitionId,
    budget: usize,
) -> bool {
    let net = stg.net();
    let nt = net.num_transitions();
    let mut seen = vec![false; nt * (budget + 1)];
    let mut queue = std::collections::VecDeque::new();
    seen[a.index() * (budget + 1)] = true;
    queue.push_back((a, 0usize));
    while let Some((t, spent)) = queue.pop_front() {
        for &q in net.postset(t) {
            if q == p || dead_p[q.index()] {
                continue;
            }
            let qc = net.consumers(q);
            if net.producers(q).len() != 1 || qc.len() != 1 {
                continue;
            }
            let spent2 = spent + marking.contains(q) as usize;
            if spent2 > budget {
                continue;
            }
            let next = qc[0];
            if next == c {
                return true;
            }
            let slot = next.index() * (budget + 1) + spent2;
            if !seen[slot] {
                seen[slot] = true;
                queue.push_back((next, spent2));
            }
        }
    }
    false
}

/// Rule: a dummy transition `d` forming a linear chain `p → d → q`
/// (where `d` is `p`'s only consumer and `q`'s only producer) is an
/// unobservable ε-step: `p`'s producers are rewired straight into `q`
/// and `p`/`d` vanish. This contracts the chain — the reachable graph
/// *shrinks* (the token-in-`p` states merge into token-in-`q`), with
/// the signal-projected trace language preserved. Skipped when both
/// places are initially marked (the merge would start `q` with two
/// tokens) or when a rewired arc already exists.
fn merge_series_dummies(
    work: &mut Stg,
    dead_p: &mut [bool],
    dead_t: &mut [bool],
    marking: &mut Marking,
    stats: &mut PrereduceStats,
) -> bool {
    let mut changed = false;
    let transitions: Vec<TransitionId> = work.transitions().collect();
    for d in transitions {
        if dead_t[d.index()] || !matches!(work.label(d), TransLabel::Dummy { .. }) {
            continue;
        }
        let net = work.net();
        let live = |ps: &[PlaceId]| -> Vec<PlaceId> {
            ps.iter().copied().filter(|q| !dead_p[q.index()]).collect()
        };
        let (pre, post) = (live(net.preset(d)), live(net.postset(d)));
        let ([p], [q]) = (pre.as_slice(), post.as_slice()) else {
            continue;
        };
        let (p, q) = (*p, *q);
        if p == q || net.consumers(p) != [d] || net.producers(q) != [d] {
            continue;
        }
        if marking.contains(p) && marking.contains(q) {
            continue;
        }
        let producers: Vec<TransitionId> = net.producers(p).to_vec();
        // A producer already feeding `q` would need a duplicate arc.
        if producers.iter().any(|&t| net.postset(t).contains(&q)) {
            continue;
        }
        let net = work.net_mut();
        for &t in &producers {
            net.remove_arc_tp(t, p);
            let _ = net.add_arc_tp(t, q);
        }
        net.remove_arc_pt(p, d);
        net.remove_arc_tp(d, q);
        if marking.contains(p) {
            marking.set(p, false);
            marking.set(q, true);
        }
        dead_p[p.index()] = true;
        dead_t[d.index()] = true;
        stats.dummy_merges += 1;
        changed = true;
    }
    changed
}

/// Rebuilds the STG without the removed nodes. Ids are dense, so
/// removal is a fresh net; signal ids, labels (including instance
/// numbers), place names, initial values, and channels carry over
/// verbatim.
fn compact(stg: &Stg, marking: &Marking, dead_p: &[bool], dead_t: &[bool]) -> Result<Stg> {
    let mut out = Stg::new(stg.name.clone());
    for s in stg.signals().collect::<Vec<_>>() {
        let sig = stg.signal(s);
        let id = out.add_signal(sig.name.clone(), sig.kind)?;
        debug_assert_eq!(id, s);
        if let Some(v) = stg.initial_value(s) {
            out.set_initial_value(id, v);
        }
    }
    for h in stg.handshakes().to_vec() {
        out.add_handshake(h.req, h.ack)?;
    }
    let mut tmap: Vec<Option<TransitionId>> = vec![None; stg.net().num_transitions()];
    for t in stg.transitions().collect::<Vec<_>>() {
        if !dead_t[t.index()] {
            tmap[t.index()] = Some(out.add_labelled_transition(stg.label(t).clone()));
        }
    }
    let mut marked = Vec::new();
    for p in stg.places().collect::<Vec<_>>() {
        if dead_p[p.index()] {
            continue;
        }
        let np = out.add_named_place(stg.net().place_name(p).to_string());
        for &t in stg.net().producers(p) {
            out.arc_tp(tmap[t.index()].expect("arc from removed transition"), np)?;
        }
        for &t in stg.net().consumers(p) {
            out.arc_pt(np, tmap[t.index()].expect("arc to removed transition"))?;
        }
        if marking.contains(p) {
            marked.push(np);
        }
    }
    out.set_initial_places(&marked);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::ReachabilityGraph;
    use crate::stg::SignalKind;

    /// a+ -> b+ -> a- -> b- -> a+ cycle with marking before a+.
    fn chain() -> Stg {
        let mut g = Stg::new("chain");
        let a = g.add_signal("a", SignalKind::Input).unwrap();
        let b = g.add_signal("b", SignalKind::Output).unwrap();
        let ap = g.add_edge_transition(a, Polarity::Rise);
        let bp = g.add_edge_transition(b, Polarity::Rise);
        let am = g.add_edge_transition(a, Polarity::Fall);
        let bm = g.add_edge_transition(b, Polarity::Fall);
        g.connect(ap, bp).unwrap();
        g.connect(bp, am).unwrap();
        g.connect(am, bm).unwrap();
        let p = g.connect(bm, ap).unwrap();
        g.set_initial_places(&[p]);
        g
    }

    #[test]
    fn causal_place_orders_events() {
        let mut g = chain();
        let am = g.transition_by_label("a-").unwrap();
        let bm = g.transition_by_label("b-").unwrap();
        // Already ordered; adding a duplicate ordering place is fine as
        // long as the arc pair differs — connect() makes a fresh place.
        let p = insert_causal_place(&mut g, am, bm).unwrap();
        assert_eq!(g.net().producers(p), &[am]);
        assert_eq!(g.net().consumers(p), &[bm]);
        // Language unchanged: same number of reachable markings modulo
        // the duplicated place (still a single linear cycle of 4 states).
        let r = ReachabilityGraph::explore_default(g.net(), &g.initial_marking()).unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn series_insertion_reroutes_successors() {
        let mut g = chain();
        let csc = g.add_signal("csc", SignalKind::Internal).unwrap();
        let bp = g.transition_by_label("b+").unwrap();
        let t = insert_series_transition(&mut g, bp, csc, Polarity::Rise, |_, _| true).unwrap();
        assert_eq!(g.transition_name(t), "csc+");
        // b+ now leads only to the link place; csc+ produces into the
        // former postset of b+.
        assert_eq!(g.net().postset(bp).len(), 1);
        let am = g.transition_by_label("a-").unwrap();
        let pred_places = g.net().preset(am);
        assert!(pred_places
            .iter()
            .any(|&p| g.net().producers(p).contains(&t)));
        // The trace now interleaves csc+: 5 states in the cycle.
        let r = ReachabilityGraph::explore_default(g.net(), &g.initial_marking()).unwrap();
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn series_insertion_respects_filter() {
        let mut g = chain();
        let csc = g.add_signal("csc", SignalKind::Internal).unwrap();
        let bp = g.transition_by_label("b+").unwrap();
        // Filter rejects everything -> error.
        let e = insert_series_transition(&mut g, bp, csc, Polarity::Rise, |_, _| false);
        assert!(e.is_err());
    }

    /// A partial two-phase handshake: `r~ -> a~ -> r~` with a declared
    /// channel.
    fn partial_channel() -> Stg {
        crate::parse::parse_g(
            ".model hs\n.inputs a\n.outputs r\n.handshake r a\n.graph\n\
             r~ a~\na~ r~\n.marking { <a~,r~> }\n.end\n",
        )
        .unwrap()
    }

    #[test]
    fn four_phase_expansion_builds_the_protocol() {
        let mut g = partial_channel();
        assert!(g.is_partial());
        let exp = expand_channel_four_phase(&mut g, 0).unwrap();
        assert!(!g.is_partial(), "expansion must consume the channel");
        assert_eq!(g.transition_name(exp.req_rise), "r+");
        assert_eq!(g.transition_name(exp.req_fall), "r-");
        assert_eq!(g.transition_name(exp.ack_rise), "a+");
        assert_eq!(g.transition_name(exp.ack_fall), "a-");
        // The four-phase cycle is live: 4 states when nothing else runs.
        let r = ReachabilityGraph::explore_default(g.net(), &g.initial_marking()).unwrap();
        assert_eq!(r.len(), 4);
        g.validate().unwrap();
        // Relabelling refreshed the implicit place names, so the STG
        // round-trips through the writer.
        let text = crate::write::write_g(&g);
        let g2 = crate::parse::parse_g(&text).unwrap();
        assert_eq!(g.net().num_transitions(), g2.net().num_transitions());
        assert_eq!(g.initial_marking().count(), g2.initial_marking().count());
    }

    #[test]
    fn expansion_rejects_malformed_channels() {
        // A channel whose req has a rise transition instead of a toggle.
        let mut g = chain(); // a+/a-/b+/b- events, no toggles
        let a = g.signal_by_name("a").unwrap();
        let b = g.signal_by_name("b").unwrap();
        g.add_handshake(b, a).unwrap();
        let e = expand_channel_four_phase(&mut g, 0).unwrap_err();
        assert!(matches!(e, PetriError::Structural(_)), "{e}");
        // And an out-of-range channel index.
        let mut g = partial_channel();
        assert!(expand_channel_four_phase(&mut g, 7).is_err());
    }

    #[test]
    fn automorphisms_find_the_branch_swap() {
        // Fork/join with two symmetric request/ack branches.
        let g = crate::parse::parse_g(
            ".model par\n.inputs go a1 a2\n.outputs r1 r2\n.graph\n\
             go+ r1+ r2+\nr1+ a1+\nr2+ a2+\na1+ go-\na2+ go-\n\
             go- r1- r2-\nr1- a1-\nr2- a2-\na1- go+\na2- go+\n\
             .marking { <a1-,go+> <a2-,go+> }\n.end\n",
        )
        .unwrap();
        let autos = signal_automorphisms(&g);
        assert_eq!(autos.len(), 1, "exactly the 1<->2 swap");
        let p = &autos[0];
        let id = |n: &str| g.signal_by_name(n).unwrap();
        assert_eq!(p[id("a1").index()], id("a2"));
        assert_eq!(p[id("r1").index()], id("r2"));
        assert_eq!(p[id("go").index()], id("go"));
        // The induced transition mapping is total.
        let t = g.transition_by_label("r1+").unwrap();
        let u = map_transition(&g, t, p).unwrap();
        assert_eq!(g.transition_name(u), "r2+");
    }

    #[test]
    fn asymmetric_specs_have_no_automorphisms() {
        let g = partial_channel();
        assert!(signal_automorphisms(&g).is_empty());
        let g = chain();
        assert!(signal_automorphisms(&g).is_empty());
    }

    // --- prereduce ---------------------------------------------------

    /// Canonical witness of a reachability graph: sorted enabled-label
    /// multisets reached by BFS — invariant under place removal when
    /// the graph is isomorphic.
    fn reach_shape(g: &Stg) -> (usize, usize, Vec<Vec<String>>) {
        let rg = ReachabilityGraph::explore_default(g.net(), &g.initial_marking()).unwrap();
        let arcs = (0..rg.len() as u32).map(|s| rg.successors(s).len()).sum();
        let mut shapes: Vec<Vec<String>> = (0..rg.len() as u32)
            .map(|s| {
                let mut labels: Vec<String> = rg
                    .successors(s)
                    .iter()
                    .map(|&(t, _)| g.transition_name(t).to_string())
                    .collect();
                labels.sort();
                labels
            })
            .collect();
        shapes.sort();
        (rg.len(), arcs, shapes)
    }

    #[test]
    fn prereduce_removes_shortcut_places() {
        let mut g = crate::parse::parse_g(
            ".model redundant\n.inputs a\n.outputs x b\n.graph\n\
             a+ x+ b+\nx+ b+\nb+ a-\na- x- b-\nx- b-\nb- a+\n\
             .marking { <b-,a+> }\n.end\n",
        )
        .unwrap();
        let before = reach_shape(&g);
        let stats = prereduce(&mut g).unwrap();
        assert_eq!(stats.shortcut_places, 2);
        assert_eq!(stats.places_removed, 2);
        assert_eq!(stats.transitions_removed, 0);
        g.validate().unwrap();
        assert_eq!(reach_shape(&g), before, "reachable graph changed");
        // Idempotent: a second pass finds nothing.
        assert!(!prereduce(&mut g).unwrap().changed());
    }

    #[test]
    fn prereduce_respects_token_budgets_on_shortcuts() {
        // The direct place is unmarked but the only alternative path
        // holds a token: once that token is spent the path no longer
        // bounds the direct place, so the rule must not fire.
        let mut g = Stg::new("budget");
        let a = g.add_signal("a", SignalKind::Input).unwrap();
        let x = g.add_signal("x", SignalKind::Output).unwrap();
        let b = g.add_signal("b", SignalKind::Output).unwrap();
        let ap = g.add_edge_transition(a, Polarity::Rise);
        let xp = g.add_edge_transition(x, Polarity::Rise);
        let bp = g.add_edge_transition(b, Polarity::Rise);
        let direct = g.connect(ap, bp).unwrap(); // unmarked: budget 0
        let q1 = g.connect(ap, xp).unwrap(); // marked: path sum 1
        g.connect(xp, bp).unwrap();
        let back = g.connect(bp, ap).unwrap();
        g.set_initial_places(&[q1, back]);
        let before_places = g.net().num_places();
        let stats = prereduce(&mut g).unwrap();
        assert!(!stats.changed(), "budget-violating path used: {stats:?}");
        assert_eq!(g.net().num_places(), before_places);
        let _ = direct;
    }

    #[test]
    fn prereduce_removes_duplicates_and_self_loops() {
        let mut g = chain();
        let ap = g.transition_by_label("a+").unwrap();
        let bp = g.transition_by_label("b+").unwrap();
        // A twin of the existing <a+,b+> place, same (empty) marking.
        let twin = g.add_named_place("twin");
        g.arc_tp(ap, twin).unwrap();
        g.arc_pt(twin, bp).unwrap();
        // A marked self-loop on b+.
        let lp = g.add_named_place("selfloop");
        g.arc_tp(bp, lp).unwrap();
        g.arc_pt(lp, bp).unwrap();
        let mut marked: Vec<_> = g.initial_marking().iter().collect();
        marked.push(lp);
        g.set_initial_places(&marked);
        let before = reach_shape(&g);
        let stats = prereduce(&mut g).unwrap();
        assert_eq!(stats.duplicate_places, 1);
        assert_eq!(stats.self_loop_places, 1);
        assert_eq!(stats.places_removed, 2);
        g.validate().unwrap();
        assert_eq!(reach_shape(&g), before);
    }

    #[test]
    fn prereduce_merges_series_dummies() {
        // a+ -> dum -> b+ -> a- -> b- -> (back): the dummy state
        // vanishes, shrinking the reachable graph by exactly one state
        // while the signal-labelled arcs survive.
        let mut g = Stg::new("dummychain");
        let a = g.add_signal("a", SignalKind::Input).unwrap();
        let b = g.add_signal("b", SignalKind::Output).unwrap();
        let ap = g.add_edge_transition(a, Polarity::Rise);
        let bp = g.add_edge_transition(b, Polarity::Rise);
        let am = g.add_edge_transition(a, Polarity::Fall);
        let bm = g.add_edge_transition(b, Polarity::Fall);
        let d = g.add_dummy_transition("dum");
        g.connect(ap, d).unwrap();
        g.connect(d, bp).unwrap();
        g.connect(bp, am).unwrap();
        g.connect(am, bm).unwrap();
        let back = g.connect(bm, ap).unwrap();
        g.set_initial_places(&[back]);
        let before = reach_shape(&g);
        let stats = prereduce(&mut g).unwrap();
        assert_eq!(stats.dummy_merges, 1);
        assert_eq!(stats.transitions_removed, 1);
        assert_eq!(stats.places_removed, 1);
        g.validate().unwrap();
        let after = reach_shape(&g);
        assert_eq!(after.0, before.0 - 1, "ε-state not contracted");
        assert!(g.transition_by_label("dum").is_none());
        // All signal transitions still fire.
        let rg = ReachabilityGraph::explore_default(g.net(), &g.initial_marking()).unwrap();
        assert!(rg.all_transitions_fire(g.net()));
    }

    #[test]
    fn prereduce_skips_partial_and_preserves_labels() {
        let mut partial = partial_channel();
        let before = partial.clone();
        assert!(!prereduce(&mut partial).unwrap().changed());
        assert_eq!(partial, before, "partial specification touched");

        // Instance numbers survive compaction verbatim: a net with
        // a+/2 plus a removable twin place keeps the /2 label.
        let mut g = Stg::new("instances");
        let a = g.add_signal("a", SignalKind::Input).unwrap();
        let b = g.add_signal("b", SignalKind::Output).unwrap();
        let ap1 = g.add_edge_transition(a, Polarity::Rise);
        let bp = g.add_edge_transition(b, Polarity::Rise);
        let ap2 = g.add_edge_transition(a, Polarity::Rise);
        let bm = g.add_edge_transition(b, Polarity::Fall);
        g.connect(ap1, bp).unwrap();
        let twin = g.add_named_place("twin");
        g.arc_tp(ap1, twin).unwrap();
        g.arc_pt(twin, bp).unwrap();
        g.connect(bp, ap2).unwrap();
        g.connect(ap2, bm).unwrap();
        let back = g.connect(bm, ap1).unwrap();
        g.set_initial_places(&[back]);
        // (a+ twice in a cycle is not 1-safe-consistent as an STG code,
        // but the structural pass only looks at the net.)
        let stats = prereduce(&mut g).unwrap();
        assert_eq!(stats.duplicate_places, 1);
        assert!(g.transition_by_label("a+/2").is_some(), "instance lost");
    }
}
