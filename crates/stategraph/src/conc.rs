//! The concurrency relation between events (Definition 2.1).
//!
//! Two edges `a`, `b` are concurrent iff the SG contains a diamond
//! `s1 -a-> s2`, `s1 -b-> s3`, `s2 -b-> s4`, `s3 -a-> s4`. The reduction
//! search enumerates concurrent pairs as candidates for `FwdRed`. A
//! diamond starts where both edges are enabled, so [`concurrent_pairs`]
//! tests only the pairs in each state's [`StateGraph::excitation`].

use reshuffle_petri::SignalEdge;

use crate::sg::StateGraph;

/// All unordered concurrent pairs of distinct edges appearing in the
/// graph, in `(signal, polarity)` order of the first edge, then of the
/// second: one pass over the states, testing each pair of edges a state
/// enables for a diamond there until the pair has one.
pub fn concurrent_pairs(sg: &StateGraph) -> Vec<(SignalEdge, SignalEdge)> {
    // Edge numbers ascend in `(signal, polarity)` order.
    let number = |e: SignalEdge| 3 * e.signal.index() + e.polarity as usize;
    let n = 3 * sg.num_signals();
    let mut found = vec![None; n * n];
    let step = |from, e| sg.step_edge(from, e);
    for s in sg.state_ids() {
        let mut edges = sg.excitation(s).edges();
        while let Some(a) = edges.next() {
            for b in edges.clone() {
                let pair = &mut found[number(a) * n + number(b)];
                if pair.is_none() {
                    let ab = step(s, a).and_then(|sa| step(sa, b));
                    let ba = step(s, b).and_then(|sb| step(sb, a));
                    *pair = (ab.is_some() && ab == ba).then_some((a, b));
                }
            }
        }
    }
    found.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_state_graph;
    use reshuffle_petri::{parse_g, Polarity};

    fn edge(sg: &StateGraph, name: &str, pol: Polarity) -> SignalEdge {
        SignalEdge {
            signal: sg.signal_by_name(name).unwrap(),
            polarity: pol,
        }
    }

    /// True if `concurrent_pairs` lists `a` and `b`, in either order.
    fn concurrent(sg: &StateGraph, a: SignalEdge, b: SignalEdge) -> bool {
        let pairs = concurrent_pairs(sg);
        pairs.contains(&(a, b)) || pairs.contains(&(b, a))
    }

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
    fn fig1_req_rise_concurrent_with_ack_fall() {
        let sg = build_state_graph(&parse_g(FIG1).unwrap()).unwrap();
        let a = edge(&sg, "Req", Polarity::Rise);
        let b = edge(&sg, "Ack", Polarity::Fall);
        assert!(concurrent(&sg, a, b));
        // Sequenced events are not concurrent.
        let c = edge(&sg, "Ack", Polarity::Rise);
        assert!(!concurrent(&sg, a, c));
        let pairs = concurrent_pairs(&sg);
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn edge_not_concurrent_with_itself() {
        let sg = build_state_graph(&parse_g(FIG1).unwrap()).unwrap();
        let a = edge(&sg, "Req", Polarity::Rise);
        assert!(!concurrent(&sg, a, a));
    }

    #[test]
    fn choice_is_not_concurrency() {
        // Two inputs in free choice share enabled states but no diamond.
        let src = "\
.model choice
.inputs a b
.graph
p0 a+ b+
a+ a-
b+ b-
a- p0
b- p0
.marking { p0 }
.end
";
        let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
        let a = edge(&sg, "a", Polarity::Rise);
        let b = edge(&sg, "b", Polarity::Rise);
        assert!(!concurrent(&sg, a, b));
        assert!(concurrent_pairs(&sg).is_empty());
    }

    #[test]
    fn true_concurrency_detected() {
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
        let sg = build_state_graph(&parse_g(src).unwrap()).unwrap();
        let pairs = concurrent_pairs(&sg);
        // a+,a- each concurrent with b+,b-: 4 pairs.
        assert_eq!(pairs.len(), 4);
    }
}
