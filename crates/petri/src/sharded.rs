//! Deterministic sharded parallel breadth-first exploration.
//!
//! [`explore`] grows a graph from an initial key by expanding the
//! frontier level by level. Work is partitioned over a *fixed* number
//! of hash shards ([`NUM_SHARDS`]), each owning the keys whose hash
//! lands on it; worker threads process disjoint shard ranges, so no
//! locks are taken on the hot path. Because the partitioning depends
//! only on the key hash — never on thread scheduling — every phase
//! visits its work in a fixed order and the exploration is fully
//! deterministic for a given input.
//!
//! The returned graph is additionally *canonical*: states are
//! renumbered in breadth-first order from the initial key, following
//! each state's successor list in the order the callback produced it.
//! Two explorations of the same system therefore return byte-identical
//! results **regardless of thread count** — the property the state
//! graph build relies on to keep golden corpora, fingerprints and
//! cache keys stable.
//!
//! The engine is generic over the key type (the reachability graph
//! explores markings; the state-graph build then labels that graph with
//! codes) and reports the level-synchronous peak frontier width for
//! diagnostics.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};

use reshuffle_obs::{FieldVal, SpanCtx};

/// Number of hash shards. Fixed (rather than derived from the thread
/// count) so the work decomposition — and with it every iteration
/// order — is identical no matter how many workers process it.
pub const NUM_SHARDS: usize = 16;

/// Default frontier width below which a level is processed inline on
/// the calling thread: spawning workers for a handful of states costs
/// more than the states themselves.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 1024;

/// Tuning for [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Worker threads; `0` resolves to the machine's available
    /// parallelism.
    pub threads: usize,
    /// Cap on the number of explored states.
    pub budget: usize,
    /// Frontier width at which a level switches from inline processing
    /// to spawned workers; `0` resolves to
    /// [`DEFAULT_PARALLEL_THRESHOLD`]. Tests force `1` to pin the
    /// spawned path on small graphs — the inline path must stay
    /// byte-identical either way.
    pub parallel_threshold: usize,
    /// Trace context for per-shard `bfs.shard` spans (frontier width,
    /// arcs produced) at verbosity level 2. Defaults to disabled, in
    /// which case each BFS level pays a single branch. Tracing never
    /// affects the explored graph — it is observation only.
    pub span: SpanCtx,
}

impl ExploreOptions {
    /// Options with the given worker count and budget, and the default
    /// parallel threshold.
    pub fn new(threads: usize, budget: usize) -> ExploreOptions {
        ExploreOptions {
            threads,
            budget,
            parallel_threshold: 0,
            span: SpanCtx::default(),
        }
    }

    /// Attach a trace context for per-shard BFS spans.
    #[must_use]
    pub fn with_span(mut self, span: SpanCtx) -> ExploreOptions {
        self.span = span;
        self
    }
}

/// The explored graph, canonically numbered in BFS order from state 0
/// (the initial key).
#[derive(Debug, Clone)]
pub struct Explored<K, L> {
    /// The key of each state, indexed by canonical id.
    pub keys: Vec<K>,
    /// Outgoing arcs per state, in the order the successor callback
    /// produced them.
    pub succs: Vec<Vec<(L, u32)>>,
    /// Largest level-synchronous frontier seen during exploration.
    pub peak_frontier: usize,
}

impl<K, L> Explored<K, L> {
    /// Total number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.succs.iter().map(|s| s.len()).sum()
    }
}

/// Resolves a thread-count request: `0` means available parallelism,
/// and more workers than shards would idle.
pub fn effective_threads(threads: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    t.clamp(1, NUM_SHARDS)
}

fn shard_of<K: Hash>(key: &K) -> usize {
    // DefaultHasher::new() is keyed deterministically, unlike
    // RandomState — shard assignment must not vary across processes.
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) & (NUM_SHARDS - 1)
}

/// Per-shard growable state: the keys owned by the shard and their
/// (resolved) outgoing arcs. The lookup index lives in a separate
/// vector so arc resolution can read every shard's index while
/// appending to its own arc lists.
struct Core<K, L> {
    keys: Vec<K>,
    /// Arc targets packed as `shard << 32 | local`.
    succs: Vec<Vec<(L, u64)>>,
    frontier: Vec<u32>,
}

/// What one shard's frontier expansion produced: the arcs waiting for
/// target resolution and, per destination shard, the keys discovered.
struct Expansion<K, L> {
    /// `(source local id, label, destination shard, index into the
    /// destination outbox)`.
    pending: Vec<(u32, L, u32, u32)>,
    outboxes: Vec<Vec<K>>,
}

/// One shard's mutable halves for the insertion phase: its key index
/// and its growable core.
type ShardPair<'a, K, L> = (&'a mut HashMap<K, u32>, &'a mut Core<K, L>);

fn pack(shard: usize, local: u32) -> u64 {
    ((shard as u64) << 32) | local as u64
}

fn unpack(packed: u64) -> (usize, usize) {
    ((packed >> 32) as usize, (packed & u32::MAX as u64) as usize)
}

/// Runs `f` once per item of `items` (one item per shard), returning
/// results in shard order. With more than one worker and a frontier
/// worth the spawn cost, items are split into contiguous ranges, one
/// scoped thread each; otherwise everything runs inline. Every phase
/// of the exploration funnels through this single helper, so the work
/// partitioning — and with it every observable ordering — cannot drift
/// between phases. Callers observe identical result sequences on both
/// code paths.
fn per_shard_mut<T: Send, R: Send>(
    workers: usize,
    parallel: bool,
    items: &mut [T],
    f: impl Fn(usize, &mut T) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 || !parallel {
        return items
            .iter_mut()
            .enumerate()
            .map(|(s, item)| f(s, item))
            .collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut items_rest: &mut [T] = items;
        let mut slots_rest: &mut [Option<R>] = &mut out;
        let mut start = 0usize;
        while !items_rest.is_empty() {
            let take = chunk.min(items_rest.len());
            let (item_head, item_tail) = items_rest.split_at_mut(take);
            let (slot_head, slot_tail) = slots_rest.split_at_mut(take);
            items_rest = item_tail;
            slots_rest = slot_tail;
            let f = &f;
            let s0 = start;
            scope.spawn(move || {
                for (i, (item, slot)) in item_head.iter_mut().zip(slot_head).enumerate() {
                    *slot = Some(f(s0 + i, item));
                }
            });
            start += take;
        }
    });
    out.into_iter()
        .map(|r| r.expect("every shard ran"))
        .collect()
}

/// Explores the graph reachable from `initial`, calling `succ` to list
/// each state's labelled successors, and returns it canonically
/// numbered (see the module docs). `budget_err` builds the error
/// reported when more than `opts.budget` states are reachable.
///
/// # Errors
///
/// The first error `succ` returns (in deterministic shard/level
/// order), or `budget_err(opts.budget)` on exhaustion.
pub fn explore<K, L, E>(
    initial: K,
    opts: &ExploreOptions,
    succ: impl Fn(&K, &mut Vec<(L, K)>) -> Result<(), E> + Sync,
    budget_err: impl Fn(usize) -> E + Sync,
) -> Result<Explored<K, L>, E>
where
    K: Clone + Eq + Hash + Send + Sync,
    L: Copy + Send + Sync,
    E: Send,
{
    let workers = effective_threads(opts.threads);
    let mut indices: Vec<HashMap<K, u32>> = (0..NUM_SHARDS).map(|_| HashMap::new()).collect();
    let mut cores: Vec<Core<K, L>> = (0..NUM_SHARDS)
        .map(|_| Core {
            keys: Vec::new(),
            succs: Vec::new(),
            frontier: Vec::new(),
        })
        .collect();

    let init_shard = shard_of(&initial);
    indices[init_shard].insert(initial.clone(), 0);
    cores[init_shard].keys.push(initial);
    cores[init_shard].succs.push(Vec::new());
    cores[init_shard].frontier.push(0);
    let total = AtomicUsize::new(1);
    if opts.budget == 0 {
        return Err(budget_err(0));
    }
    let mut peak_frontier = 0usize;
    let threshold = if opts.parallel_threshold == 0 {
        DEFAULT_PARALLEL_THRESHOLD
    } else {
        opts.parallel_threshold
    };
    let mut level = 0u64;

    loop {
        let width: usize = cores.iter().map(|c| c.frontier.len()).sum();
        if width == 0 {
            break;
        }
        peak_frontier = peak_frontier.max(width);
        let parallel = width >= threshold;

        // Phase A: expand every shard's frontier. Arcs are recorded as
        // (source, label, destination shard, outbox position); the
        // discovered keys ride in per-destination outboxes. Shards with
        // work open a level-2 child span reporting their frontier slice.
        let succ_ref = &succ;
        let span_ref = &opts.span;
        let expansions: Vec<Result<Expansion<K, L>, E>> =
            per_shard_mut(workers, parallel, &mut cores, |s, core| {
                let sp = if core.frontier.is_empty() {
                    None
                } else {
                    Some(span_ref.span_at(2, "bfs.shard"))
                };
                let frontier_width = core.frontier.len();
                let mut pending = Vec::new();
                let mut outboxes: Vec<Vec<K>> = (0..NUM_SHARDS).map(|_| Vec::new()).collect();
                let mut buf: Vec<(L, K)> = Vec::new();
                for &local in &core.frontier {
                    succ_ref(&core.keys[local as usize], &mut buf)?;
                    for (label, key) in buf.drain(..) {
                        let d = shard_of(&key);
                        pending.push((local, label, d as u32, outboxes[d].len() as u32));
                        outboxes[d].push(key);
                    }
                }
                if let Some(sp) = sp {
                    sp.end(&[
                        ("level", FieldVal::U64(level)),
                        ("shard", FieldVal::U64(s as u64)),
                        ("frontier", FieldVal::U64(frontier_width as u64)),
                        ("arcs", FieldVal::U64(pending.len() as u64)),
                    ]);
                }
                Ok(Expansion { pending, outboxes })
            });
        let mut levels: Vec<Expansion<K, L>> = Vec::with_capacity(NUM_SHARDS);
        for e in expansions {
            levels.push(e?); // first error in shard order
        }

        // Phase B: each shard inserts the keys destined to it, in
        // source-shard order, assigning local ids and the next
        // frontier. The budget is enforced with a shared counter.
        let levels_ref = &levels;
        let total_ref = &total;
        let budget = opts.budget;
        let mut pairs: Vec<ShardPair<'_, K, L>> =
            indices.iter_mut().zip(cores.iter_mut()).collect();
        let inserted: Vec<Result<(), ()>> =
            per_shard_mut(workers, parallel, &mut pairs, |d, (index, core)| {
                core.frontier.clear();
                for src in levels_ref.iter() {
                    for key in &src.outboxes[d] {
                        if index.contains_key(key) {
                            continue;
                        }
                        let prev = total_ref.fetch_add(1, Ordering::Relaxed);
                        if prev + 1 > budget {
                            return Err(());
                        }
                        let local = core.keys.len() as u32;
                        index.insert(key.clone(), local);
                        core.keys.push(key.clone());
                        core.succs.push(Vec::new());
                        core.frontier.push(local);
                    }
                }
                Ok(())
            });
        drop(pairs);
        if inserted.into_iter().any(|r| r.is_err()) {
            return Err(budget_err(budget));
        }

        // Phase C: resolve the level's arcs now that every discovered
        // key has a home, appending to the source shard's lists.
        let indices_ref = &indices;
        per_shard_mut(workers, parallel, &mut cores, |s, core| {
            let exp = &levels_ref[s];
            for &(src, label, d, pos) in &exp.pending {
                let key = &exp.outboxes[d as usize][pos as usize];
                let local = indices_ref[d as usize][key];
                core.succs[src as usize].push((label, pack(d as usize, local)));
            }
        });
        level += 1;
    }

    // Canonical renumbering: BFS from the initial key, following each
    // state's arcs in recorded order. Every explored state is reachable
    // from the initial one, so this visits them all.
    let n = total.load(Ordering::Relaxed);
    let mut global: Vec<Vec<u32>> = cores.iter().map(|c| vec![u32::MAX; c.keys.len()]).collect();
    let mut order: Vec<(u32, u32)> = Vec::with_capacity(n);
    global[init_shard][0] = 0;
    order.push((init_shard as u32, 0));
    let mut head = 0usize;
    while head < order.len() {
        let (s, l) = order[head];
        head += 1;
        for &(_, packed) in &cores[s as usize].succs[l as usize] {
            let (ds, dl) = unpack(packed);
            if global[ds][dl] == u32::MAX {
                global[ds][dl] = order.len() as u32;
                order.push((ds as u32, dl as u32));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "every explored state is reachable");
    let keys = order
        .iter()
        .map(|&(s, l)| cores[s as usize].keys[l as usize].clone())
        .collect();
    let succs = order
        .iter()
        .map(|&(s, l)| {
            cores[s as usize].succs[l as usize]
                .iter()
                .map(|&(label, packed)| {
                    let (ds, dl) = unpack(packed);
                    (label, global[ds][dl])
                })
                .collect()
        })
        .collect();
    Ok(Explored {
        keys,
        succs,
        peak_frontier,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Explore a hypercube: states are bitmasks below 2^k, arcs set one
    /// unset bit (label = bit index). `parallel_threshold = 1` forces
    /// the spawned code path even on these small graphs.
    fn cube_with(
        k: u32,
        threads: usize,
        budget: usize,
        parallel_threshold: usize,
    ) -> Result<Explored<u32, u32>, String> {
        explore(
            0u32,
            &ExploreOptions {
                threads,
                budget,
                parallel_threshold,
                span: SpanCtx::default(),
            },
            |&s, out| {
                for b in 0..k {
                    if s & (1 << b) == 0 {
                        out.push((b, s | (1 << b)));
                    }
                }
                Ok(())
            },
            |b| format!("budget {b}"),
        )
    }

    fn cube(k: u32, threads: usize, budget: usize) -> Result<Explored<u32, u32>, String> {
        cube_with(k, threads, budget, 0)
    }

    #[test]
    fn cube_counts_and_canonical_order() {
        let e = cube(4, 1, 1 << 20).unwrap();
        assert_eq!(e.keys.len(), 16);
        assert_eq!(e.num_arcs(), 32); // 4 * 2^3 directed set-bit arcs
        assert_eq!(e.keys[0], 0);
        // BFS from 0 following bit order: first level is 1,2,4,8.
        assert_eq!(&e.keys[1..5], &[1, 2, 4, 8]);
        assert!(e.peak_frontier >= 4);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let base = cube(6, 1, 1 << 20).unwrap();
        for threads in [2, 3, 8, NUM_SHARDS + 5] {
            let e = cube(6, threads, 1 << 20).unwrap();
            assert_eq!(base.keys, e.keys, "keys differ at {threads} threads");
            assert_eq!(base.succs, e.succs, "arcs differ at {threads} threads");
        }
    }

    #[test]
    fn spawned_path_matches_inline_path() {
        // Default threshold keeps these graphs inline; forcing it to 1
        // makes every level spawn real workers. Both must be identical
        // to each other and across worker counts — this is the test
        // that actually exercises the scoped-thread code.
        let base = cube(6, 1, 1 << 20).unwrap();
        for threads in [2, 3, 8] {
            let spawned = cube_with(6, threads, 1 << 20, 1).unwrap();
            assert_eq!(base.keys, spawned.keys, "keys differ at {threads} threads");
            assert_eq!(
                base.succs, spawned.succs,
                "arcs differ at {threads} threads"
            );
        }
        // Budget and callback errors behave identically on the spawned
        // path.
        assert_eq!(cube_with(4, 4, 7, 1).unwrap_err(), "budget 7");
    }

    #[test]
    fn budget_is_enforced() {
        assert_eq!(cube(4, 1, 7).unwrap_err(), "budget 7");
        assert_eq!(cube(4, 4, 7).unwrap_err(), "budget 7");
        // Exactly enough budget succeeds.
        assert_eq!(cube(4, 1, 16).unwrap().keys.len(), 16);
        assert!(cube(4, 1, 0).is_err());
    }

    #[test]
    fn callback_errors_propagate() {
        let r = explore(
            0u32,
            &ExploreOptions::new(2, 1000),
            |&s, out: &mut Vec<(u32, u32)>| {
                if s == 3 {
                    return Err("boom".to_string());
                }
                if s < 5 {
                    out.push((0, s + 1));
                }
                Ok(())
            },
            |_| "budget".to_string(),
        );
        assert_eq!(r.unwrap_err(), "boom");
    }

    #[test]
    fn shard_spans_report_frontier_sizes() {
        use reshuffle_obs::{RingSink, Sink, SinkHandle, TraceId, Tracer};
        use std::sync::Arc;
        let ring = Arc::new(RingSink::new(256));
        let tracer = Tracer::new(2, SinkHandle::new(ring.clone() as Arc<dyn Sink>));
        let trace = TraceId::derive(0xabcd, 1);
        let opts = ExploreOptions::new(2, 1 << 20).with_span(tracer.root(trace));
        let traced = explore(
            0u32,
            &opts,
            |&s: &u32, out: &mut Vec<(u32, u32)>| {
                for b in 0..4 {
                    if s & (1 << b) == 0 {
                        out.push((b, s | (1 << b)));
                    }
                }
                Ok(())
            },
            |b| format!("budget {b}"),
        )
        .unwrap();
        let plain = cube(4, 2, 1 << 20).unwrap();
        assert_eq!(traced.keys, plain.keys, "tracing must not change the graph");
        assert_eq!(traced.succs, plain.succs);
        let lines = ring.lines();
        assert!(!lines.is_empty(), "level-2 tracing emits shard spans");
        let hex = trace.to_string();
        for line in &lines {
            assert!(line.contains("\"name\":\"bfs.shard\""), "{line}");
            assert!(line.contains(&format!("\"trace\":\"{hex}\"")), "{line}");
            assert!(line.contains("\"frontier\":"), "{line}");
        }
        // At level 1 the shard spans are gated off entirely.
        let quiet = Arc::new(RingSink::new(16));
        let t1 = Tracer::new(1, SinkHandle::new(quiet.clone() as Arc<dyn Sink>));
        let opts = ExploreOptions::new(1, 1 << 20).with_span(t1.root(trace));
        explore(
            0u32,
            &opts,
            |&s: &u32, out: &mut Vec<(u32, u32)>| {
                if s < 3 {
                    out.push((0, s + 1));
                }
                Ok(())
            },
            |b| format!("budget {b}"),
        )
        .unwrap();
        assert!(quiet.lines().is_empty());
    }

    #[test]
    fn effective_threads_resolves() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(1000), NUM_SHARDS);
    }
}
