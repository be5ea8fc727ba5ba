//! One run's memo of minimized covers.
//!
//! A pipeline run minimizes the same next-state function many times:
//! lattice siblings and reduce nodes differ only in the order of
//! independent events, and the reduce search, the CSC rank pool and the
//! final selection all score graphs by the literal counts of their
//! functions. [`CoverMemo`] keeps each cover under the content that
//! determines it: the variable count, the minimizer path and the on and
//! off code lists. The codes in neither list are the don't-care set,
//! both for a signal that shares its graph's set and for one with its
//! own, so equal keys give equal covers.
//!
//! A memo belongs to one run and is dropped with it. The run's threads
//! share it by reference: the lock is held only to look up and to
//! insert, never while minimizing, and two threads that race on one key
//! insert equal covers. What the memo stores has a fixed byte budget;
//! once it is spent, new covers are no longer stored, and
//! [`derive_all_functions`](crate::derive_all_functions) still shares
//! one minimization among the signals of one graph.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use reshuffle_logic::{Cover, Cube};

/// Bytes one memo stores at most, counted by [`entry_bytes`].
const BUDGET_BYTES: usize = 8 << 20;

/// The content that determines a minimized cover.
pub(crate) struct Key {
    /// Hash of the fields below under the memo's hasher, computed
    /// outside the lock.
    hash: u64,
    num_vars: usize,
    /// True on the BDD-backed path, false on the cube-list path.
    bdd: bool,
    on: Vec<u64>,
    off: Vec<u64>,
}

/// The bytes an entry holds: its codes, its cubes and the entry itself.
fn entry_bytes(key: &Key, cover: &Cover) -> usize {
    std::mem::size_of::<(Key, Cover)>()
        + std::mem::size_of::<u64>() * (key.on.len() + key.off.len())
        + std::mem::size_of::<Cube>() * cover.len()
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.hash == other.hash
            && self.num_vars == other.num_vars
            && self.bdd == other.bdd
            && self.on == other.on
            && self.off == other.off
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Minimized covers of one pipeline run, keyed by exact content.
///
/// Pass one memo to every derivation of a run
/// ([`derive_all_functions`](crate::derive_all_functions),
/// [`literal_estimate_with`](crate::literal_estimate_with) and the
/// searches built on them); drop it with the run.
pub struct CoverMemo {
    hasher: RandomState,
    budget: usize,
    stored: Mutex<Stored>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Default)]
struct Stored {
    covers: HashMap<Key, Cover>,
    /// [`entry_bytes`] summed over `covers`.
    bytes: usize,
}

impl CoverMemo {
    /// An empty memo.
    pub fn new() -> CoverMemo {
        CoverMemo::with_budget(BUDGET_BYTES)
    }

    fn with_budget(budget: usize) -> CoverMemo {
        CoverMemo {
            hasher: RandomState::new(),
            budget,
            stored: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Derivations answered without minimizing: from the memo, or from
    /// another signal of the same graph.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Derivations that minimized.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, Stored> {
        self.stored
            .lock()
            .expect("a thread panicked holding the cover memo")
    }

    /// The key of the function with on-set `on` and off-set `off`
    /// (ascending) over `num_vars` variables, on the BDD-backed path or
    /// the cube-list one.
    pub(crate) fn key(&self, num_vars: usize, bdd: bool, on: Vec<u64>, off: Vec<u64>) -> Key {
        let hash = self.hasher.hash_one((num_vars, bdd, &on, &off));
        Key {
            hash,
            num_vars,
            bdd,
            on,
            off,
        }
    }

    /// Counts a derivation that another signal of its graph answered.
    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// The cover stored under `key`, or else `minimize(on, off)` of its
    /// code lists, which is stored while the budget lasts.
    pub(crate) fn cover(
        &self,
        mut key: Key,
        minimize: impl FnOnce(&[u64], &[u64]) -> Cover,
    ) -> Cover {
        if let Some(cover) = self.lock().covers.get(&key) {
            self.record_hit();
            return cover.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let cover = minimize(&key.on, &key.off);
        let bytes = entry_bytes(&key, &cover);
        // No spare capacity beyond the counted codes.
        key.on.shrink_to_fit();
        key.off.shrink_to_fit();
        let mut stored = self.lock();
        if stored.bytes + bytes <= self.budget {
            if let Entry::Vacant(slot) = stored.covers.entry(key) {
                slot.insert(cover.clone());
                stored.bytes += bytes;
            }
        }
        cover
    }
}

impl Default for CoverMemo {
    fn default() -> CoverMemo {
        CoverMemo::new()
    }
}

impl fmt::Debug for CoverMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stored = self.lock();
        f.debug_struct("CoverMemo")
            .field("entries", &stored.covers.len())
            .field("bytes", &stored.bytes)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{derive_all_functions, ConflictPolicy};
    use reshuffle_petri::parse_g;
    use reshuffle_sg::build_state_graph;

    /// The fork/join controller with two branches: `r1` and `r2` both
    /// follow `go`, and `done` is the C-element of `a1` and `a2`.
    const FORK2: &str = "\
.model fork2
.inputs go a1 a2
.outputs done r1 r2
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

    fn entries(memo: &CoverMemo) -> usize {
        memo.lock().covers.len()
    }

    #[test]
    fn misses_when_only_the_variable_count_the_off_codes_or_the_path_differ() {
        let memo = CoverMemo::new();
        let base = || memo.key(3, false, vec![1, 3], vec![0, 2]);
        let variants = [
            base(),
            memo.key(4, false, vec![1, 3], vec![0, 2]),
            memo.key(3, false, vec![1, 3], vec![0]),
            memo.key(3, true, vec![1, 3], vec![0, 2]),
        ];
        for key in variants {
            let nv = key.num_vars;
            memo.cover(key, |on, _| Cover::from_minterms(nv, on));
        }
        assert_eq!((memo.hits(), memo.misses()), (0, 4));
        assert_eq!(entries(&memo), 4);
        let again = memo.cover(base(), |_, _| unreachable!("the base key is stored"));
        assert_eq!(again, Cover::from_minterms(3, &[1, 3]));
        assert_eq!((memo.hits(), memo.misses()), (1, 4));
    }

    #[test]
    fn reject_and_dont_care_share_a_conflict_free_signals_entry() {
        let sg = build_state_graph(&parse_g(FORK2).unwrap()).unwrap();
        let memo = CoverMemo::new();
        let rejected = derive_all_functions(&sg, ConflictPolicy::Reject, &memo).unwrap();
        // r1 and r2 share one minimization; done has its own.
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
        assert_eq!(entries(&memo), 2);
        let estimated = derive_all_functions(&sg, ConflictPolicy::DontCare, &memo).unwrap();
        assert_eq!((memo.hits(), memo.misses()), (4, 2));
        assert_eq!(entries(&memo), 2);
        for (a, b) in rejected.iter().zip(&estimated) {
            assert_eq!((a.signal, &a.cover), (b.signal, &b.cover));
        }
    }

    #[test]
    fn a_full_budget_still_shares_within_a_graph() {
        let sg = build_state_graph(&parse_g(FORK2).unwrap()).unwrap();
        let full = CoverMemo::with_budget(0);
        let fs = derive_all_functions(&sg, ConflictPolicy::Reject, &full).unwrap();
        assert_eq!(entries(&full), 0);
        assert_eq!((full.hits(), full.misses()), (1, 2));
        let open = derive_all_functions(&sg, ConflictPolicy::Reject, &CoverMemo::new()).unwrap();
        for (a, b) in fs.iter().zip(&open) {
            assert_eq!((a.signal, &a.cover), (b.signal, &b.cover));
        }
        // Nothing was stored, so deriving the graph again minimizes
        // its two functions again.
        derive_all_functions(&sg, ConflictPolicy::Reject, &full).unwrap();
        assert_eq!((full.hits(), full.misses()), (2, 4));
    }
}
