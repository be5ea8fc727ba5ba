//! The synthesis cache: fingerprint-keyed memoization of whole
//! pipeline runs.
//!
//! A [`SynthCache`] maps `(canonical STG fingerprint, option trail)`
//! keys to finished [`Synthesis`] results, so re-synthesizing an
//! identical specification under identical options is an O(1) lookup
//! instead of a pipeline run — the ROADMAP's persistent-netlist-cache
//! step toward serving repeated requests. The spec half of the key is
//! [`reshuffle_petri::canonical_fingerprint`] (declaration-order
//! invariant); the option half is one function of the options the
//! staged builder records as each transition commits them, so a
//! [`run`] shortcut and the equivalent manual stage chain produce the
//! same key. The key a `run` will use is exposed as
//! [`run_cache_key`](crate::run_cache_key) for callers (like the
//! `reshuffle-server` single-flight registry) that deduplicate work
//! *before* starting a pipeline.
//!
//! The handle is cheaply cloneable and thread-safe; hit/miss totals
//! are cumulative over the cache's lifetime, while per-run counts are
//! surfaced on [`Diagnostics`](crate::Diagnostics). A cache built
//! [`with_capacity`](SynthCache::with_capacity) evicts its least
//! recently used entry when full; caches persist across processes via
//! [`save_to`](SynthCache::save_to) / [`load_from`](SynthCache::load_from)
//! and a [`CacheStore`](crate::CacheStore).
//!
//! [`run`]: crate::Parsed::run

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use crate::store::journal_record;
use crate::{CacheStore, Synthesis};

/// Folds one stage's part into an options-trail hash: a distinct tag
/// plus its options' canonical words, so different chains (or
/// different options) never collide by construction order.
pub(crate) fn mix(seed: u64, tag: &str, parts: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    tag.hash(&mut h);
    parts.hash(&mut h);
    h.finish()
}

/// A shared, thread-safe cache of finished pipeline runs.
///
/// ```
/// use reshuffle::{Pipeline, PipelineOptions, SynthCache};
///
/// # fn main() -> Result<(), reshuffle::PipelineError> {
/// let src = ".model xyz\n.inputs x\n.outputs y z\n.graph\n\
///            x+ y+\ny+ z+\nz+ x-\nx- y-\ny- z-\nz- x+\n\
///            .marking { <z-,x+> }\n.end\n";
/// let cache = SynthCache::new();
/// let opts = PipelineOptions::default();
///
/// // First run does the work and fills the cache ...
/// let first = Pipeline::from_g(src)?.with_cache(&cache).run(&opts)?;
/// assert_eq!((cache.hits(), cache.misses()), (0, 1));
///
/// // ... the second run on the identical spec is a lookup.
/// let second = Pipeline::from_g(src)?.with_cache(&cache).run(&opts)?;
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// assert_eq!(second.diagnostics().cache_hits, 1);
/// assert_eq!(
///     first.synthesis().netlist.describe(),
///     second.synthesis().netlist.describe(),
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SynthCache {
    inner: Arc<Mutex<Inner>>,
}

/// One cached run plus its last-used tick (the LRU recency stamp).
#[derive(Debug)]
struct Entry {
    synthesis: Synthesis,
    tick: u64,
}

/// An attached journal sink (newtype so `Inner` keeps deriving
/// `Debug` over the un-`Debug`-able trait object).
struct Journal {
    store: Arc<dyn CacheStore + Send + Sync>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Journal(..)")
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    /// Monotonic recency clock: bumped on every lookup hit and insert.
    tick: u64,
    /// `None` = unbounded; `Some(n)` evicts least-recently-used past n.
    capacity: Option<usize>,
    /// When attached, every insert appends a durable journal record.
    journal: Option<Journal>,
    hits: u64,
    misses: u64,
    shared_hits: u64,
    evictions: u64,
    journal_appends: u64,
    journal_errors: u64,
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evicts least-recently-used entries until the capacity holds.
    fn evict_to_capacity(&mut self) {
        let Some(cap) = self.capacity else {
            return;
        };
        while self.map.len() > cap {
            let coldest = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(&k, _)| k)
                .expect("map is non-empty while over capacity");
            self.map.remove(&coldest);
            self.evictions += 1;
        }
    }
}

impl SynthCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> SynthCache {
        SynthCache::default()
    }

    /// Creates an empty cache that holds at most `capacity` entries,
    /// evicting the least recently used entry when an insert would
    /// exceed it.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 (use [`SynthCache::new`] for an
    /// unbounded cache).
    pub fn with_capacity(capacity: usize) -> SynthCache {
        let cache = SynthCache::new();
        cache.set_capacity(Some(capacity));
        cache
    }

    /// Changes the entry bound: `None` is unbounded, `Some(n)` evicts
    /// down to the `n` most recently used entries immediately and on
    /// every future insert.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `Some(0)`.
    pub fn set_capacity(&self, capacity: Option<usize>) {
        assert!(capacity != Some(0), "cache capacity must be at least 1");
        let mut inner = self.inner.lock().unwrap();
        inner.capacity = capacity;
        inner.evict_to_capacity();
    }

    /// The current entry bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.inner.lock().unwrap().capacity
    }

    /// Cumulative lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.inner.lock().unwrap().hits
    }

    /// Cumulative lookups that missed (and ran the pipeline).
    pub fn misses(&self) -> u64 {
        self.inner.lock().unwrap().misses
    }

    /// Cumulative *candidate-level* hits: expansion candidates whose
    /// synthesis was shared from this cache during a partial-spec run
    /// (counted separately from the whole-run [`SynthCache::hits`]).
    pub fn shared_hits(&self) -> u64 {
        self.inner.lock().unwrap().shared_hits
    }

    /// Cumulative entries evicted by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().unwrap().evictions
    }

    /// Arms incremental persistence: from now on, every insert encodes
    /// the new entry as a journal record and hands it to
    /// [`CacheStore::append`] *before* the insert returns — with a
    /// durable store (like [`FileStore`](crate::FileStore), which
    /// fsyncs each append), a `kill -9` at any point loses no
    /// completed synthesis. Recover the entries with
    /// [`SynthCache::recover`]; fold the journal back into a snapshot
    /// with [`SynthCache::compact_to`].
    ///
    /// An append failure never fails the insert (the synthesis result
    /// is still correct and cached in memory); it is counted on
    /// [`SynthCache::journal_errors`] instead.
    pub fn attach_journal(&self, store: Arc<dyn CacheStore + Send + Sync>) {
        self.inner.lock().unwrap().journal = Some(Journal { store });
    }

    /// Cumulative journal records successfully appended.
    pub fn journal_appends(&self) -> u64 {
        self.inner.lock().unwrap().journal_appends
    }

    /// Cumulative journal appends that failed (the entries stayed
    /// cached in memory but are not crash-durable).
    pub fn journal_errors(&self) -> u64 {
        self.inner.lock().unwrap().journal_errors
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached results (the hit/miss totals stay).
    pub fn clear(&self) {
        self.inner.lock().unwrap().map.clear();
    }

    /// Looks up a finished run, counting a hit or a miss.
    pub(crate) fn lookup(&self, key: u64) -> Option<Synthesis> {
        let mut inner = self.inner.lock().unwrap();
        let tick = inner.next_tick();
        match inner.map.get_mut(&key) {
            Some(e) => {
                e.tick = tick;
                let s = e.synthesis.clone();
                inner.hits += 1;
                Some(s)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Looks up a shared candidate synthesis without touching the
    /// whole-run hit/miss counters (a candidate miss is not a pipeline
    /// miss — the run itself may still hit or miss on its own key).
    pub(crate) fn lookup_shared(&self, key: u64) -> Option<Synthesis> {
        let mut inner = self.inner.lock().unwrap();
        let tick = inner.next_tick();
        match inner.map.get_mut(&key) {
            Some(e) => {
                e.tick = tick;
                let s = e.synthesis.clone();
                inner.shared_hits += 1;
                Some(s)
            }
            None => None,
        }
    }

    /// Stores a finished run under its key, evicting the least recently
    /// used entry if the capacity bound would be exceeded. With a
    /// journal attached, the entry is appended durably first — the
    /// lock is held across the append, so the journal's record order
    /// matches the recency-tick order.
    pub(crate) fn insert(&self, key: u64, synthesis: Synthesis) {
        let mut inner = self.inner.lock().unwrap();
        let tick = inner.next_tick();
        if let Some(journal) = &inner.journal {
            match journal.store.append(&journal_record(key, tick, &synthesis)) {
                Ok(()) => inner.journal_appends += 1,
                Err(_) => inner.journal_errors += 1,
            }
        }
        inner.map.insert(key, Entry { synthesis, tick });
        inner.evict_to_capacity();
    }

    /// Snapshot of every entry as `(key, recency tick, synthesis)`,
    /// sorted by key — the deterministic order the binary codec writes.
    pub(crate) fn export_entries(&self) -> Vec<(u64, u64, Synthesis)> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<(u64, u64, Synthesis)> = inner
            .map
            .iter()
            .map(|(&k, e)| (k, e.tick, e.synthesis.clone()))
            .collect();
        out.sort_unstable_by_key(|&(k, _, _)| k);
        out
    }

    /// Snapshot of the lifetime counters
    /// `(hits, misses, shared_hits, evictions)`.
    pub(crate) fn export_counters(&self) -> (u64, u64, u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.hits, inner.misses, inner.shared_hits, inner.evictions)
    }

    /// Rebuilds a cache from decoded entries and counters, restoring
    /// each entry's recency stamp so the LRU order survives a restart.
    /// The capacity is *not* part of a snapshot: the holder re-applies
    /// its own bound via [`SynthCache::set_capacity`].
    pub(crate) fn import(
        entries: Vec<(u64, u64, Synthesis)>,
        counters: (u64, u64, u64, u64),
    ) -> SynthCache {
        let tick = entries.iter().map(|&(_, t, _)| t).max().unwrap_or(0);
        let map = entries
            .into_iter()
            .map(|(k, tick, synthesis)| (k, Entry { synthesis, tick }))
            .collect();
        SynthCache {
            inner: Arc::new(Mutex::new(Inner {
                map,
                tick,
                capacity: None,
                journal: None,
                hits: counters.0,
                misses: counters.1,
                shared_hits: counters.2,
                evictions: counters.3,
                journal_appends: 0,
                journal_errors: 0,
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_separates_tags_and_parts() {
        let a = mix(0, "reduce", &[1, 2]);
        assert_eq!(a, mix(0, "reduce", &[1, 2]), "mix must be deterministic");
        assert_ne!(a, mix(0, "reduce", &[2, 1]));
        assert_ne!(a, mix(0, "resolve", &[1, 2]));
        assert_ne!(a, mix(1, "reduce", &[1, 2]));
        // Part boundaries matter: [1,2] vs [12] style collisions are
        // prevented by hashing the slice (length included).
        assert_ne!(mix(0, "t", &[1, 2]), mix(0, "t", &[1, 2, 0]));
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        SynthCache::with_capacity(0);
    }
}
