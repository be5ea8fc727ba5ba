//! Persistent storage for [`SynthCache`]: a compact, versioned binary
//! codec plus the [`CacheStore`] trait that abstracts *where* the
//! encoded bytes live.
//!
//! The codec is deliberately dependency-free (the build container has
//! no network, so no serde): little-endian scalars, length-prefixed
//! strings, and structural records for each cached
//! [`Synthesis`](crate::Synthesis) — the STG as canonical `.g` text
//! (the round-trip-pinned writer), the state graph as its codes and
//! arcs, and the netlist as its node table. Entries are written
//! sorted by cache key and carry their LRU recency stamps, so
//! `save → load → save` is **byte-identical** and the eviction order
//! survives a process restart.
//!
//! A store holds two artifacts:
//!
//! - the **snapshot** — one whole-cache image, replaced atomically by
//!   [`CacheStore::write`];
//! - the **journal** — an append-only sequence of per-entry records
//!   ([`CacheStore::append`]), each made durable before the append
//!   returns, so a process killed at any point loses no completed
//!   synthesis. [`SynthCache::recover`] loads `snapshot + journal
//!   replay`; [`SynthCache::compact_to`] folds the journal into a
//!   fresh snapshot and clears it. Replay is idempotent (a key present
//!   in both the snapshot and the journal resolves to the journal's
//!   record), which is what makes the compaction crash-window safe: a
//!   crash between the snapshot rename and the journal clear merely
//!   replays entries the snapshot already holds.
//!
//! Every header pins a magic plus a format version; decoding rejects
//! foreign or future bytes with [`io::ErrorKind::InvalidData`] instead
//! of misreading them. Journal records additionally carry a checksum:
//! a torn tail (the one partially written record a mid-append crash
//! can leave) is detected and dropped, while corruption anywhere else
//! is an error.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use reshuffle_petri::{parse_g, write_g, Polarity, Signal, SignalEdge, SignalId, SignalKind};
use reshuffle_reduce::MoveStep;
use reshuffle_sg::{EventId, EventInfo, StateGraph};
use reshuffle_synth::{GateType, Netlist, Node, NodeId};

use crate::{SynthCache, Synthesis};

/// Magic bytes opening every snapshot: `RSHC` ("reshuffle cache").
const MAGIC: &[u8; 4] = b"RSHC";
/// Magic bytes opening every journal record: `RSHJ` ("… journal").
const JOURNAL_MAGIC: &[u8; 4] = b"RSHJ";
/// Current snapshot/journal format version. Version 2 dropped the
/// per-state markings of the embedded state graph, and version 3 its
/// initial-state word: the graph's states are stored in its one
/// canonical numbering, rooted at state 0. An older file is rejected
/// rather than misread (a version-2 graph was written without the
/// numbering rule).
const VERSION: u32 = 3;
/// Bytes of journal-record header ahead of the payload:
/// magic (4) + version (4) + payload length (4) + checksum (8).
const JOURNAL_HEADER_BYTES: usize = 20;

/// Where encoded [`SynthCache`] snapshots and journals live.
///
/// A store holds at most one snapshot ([`CacheStore::write`] replaces
/// it atomically, [`CacheStore::read`] returns the last one written,
/// or `None` when nothing was ever saved) plus one append-only
/// journal ([`CacheStore::append`] adds a durable record,
/// [`CacheStore::read_journal`] returns everything appended since the
/// last [`CacheStore::clear_journal`]). The codecs themselves live on
/// [`SynthCache`] ([`save_to`](SynthCache::save_to) /
/// [`load_from`](SynthCache::load_from) /
/// [`recover`](SynthCache::recover) /
/// [`compact_to`](SynthCache::compact_to)); stores only move opaque
/// bytes, so a new backend (a database blob, an object store) is one
/// small impl away.
///
/// # Worked example
///
/// Fill a cache, persist it, and serve a whole run from the reloaded
/// copy — the O(1) replay a synthesis service does after a restart:
///
/// ```
/// use reshuffle::{CacheStore, MemStore, Pipeline, PipelineOptions, SynthCache};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = ".model xyz\n.inputs x\n.outputs y z\n.graph\n\
///            x+ y+\ny+ z+\nz+ x-\nx- y-\ny- z-\nz- x+\n\
///            .marking { <z-,x+> }\n.end\n";
/// let opts = PipelineOptions::default();
///
/// // One real run fills the cache; save the snapshot.
/// let cache = SynthCache::new();
/// let first = Pipeline::from_g(src)?.with_cache(&cache).run(&opts)?;
/// let store = MemStore::new(); // swap in `FileStore` for a real path
/// cache.save_to(&store)?;
/// assert!(store.read()?.is_some());
///
/// // A fresh process loads the snapshot: the identical key hits.
/// let reloaded = SynthCache::load_from(&store)?;
/// assert_eq!(reloaded.len(), 1);
/// let replay = Pipeline::from_g(src)?.with_cache(&reloaded).run(&opts)?;
/// assert_eq!(replay.diagnostics().cache_hits, 1);
/// assert_eq!(
///     first.netlist().describe(),
///     replay.netlist().describe(),
/// );
/// # Ok(())
/// # }
/// ```
pub trait CacheStore {
    /// Persists one encoded snapshot, replacing any previous one.
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O failure.
    fn write(&self, bytes: &[u8]) -> io::Result<()>;

    /// Returns the last persisted snapshot, or `None` when the store
    /// has never been written (a missing file is not an error).
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O failure.
    fn read(&self) -> io::Result<Option<Vec<u8>>>;

    /// Appends one record to the journal, durably: when this returns
    /// `Ok`, the record survives an immediate process kill or power
    /// loss (for [`FileStore`], the data is fsync'd before returning).
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O failure.
    fn append(&self, record: &[u8]) -> io::Result<()>;

    /// Returns every journal byte appended since the last
    /// [`clear_journal`](CacheStore::clear_journal), or `None` when
    /// the journal is empty or was never written.
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O failure.
    fn read_journal(&self) -> io::Result<Option<Vec<u8>>>;

    /// Discards the journal (called after its entries were compacted
    /// into a snapshot). Clearing an absent journal is not an error.
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O failure.
    fn clear_journal(&self) -> io::Result<()>;
}

/// A [`CacheStore`] backed by files on disk: the snapshot at the
/// configured path, the journal at a `.journal` sibling.
///
/// Snapshot writes go to a `.tmp` sibling first (written and fsync'd),
/// are moved into place with an atomic rename, and the parent
/// directory is fsync'd — so a crash or power loss mid-save never
/// corrupts the previous snapshot *and* a completed save cannot
/// vanish. Journal appends fsync the journal file before returning
/// (plus the directory once, when the file is first created). Missing
/// files read as `None`.
#[derive(Debug, Clone)]
pub struct FileStore {
    path: PathBuf,
    /// Whether the parent directory was fsync'd since the journal file
    /// was (re)created; shared across clones so the once-per-creation
    /// directory sync survives handle cloning.
    journal_dir_synced: Arc<AtomicBool>,
}

impl FileStore {
    /// A store persisting to `path` (journal at `path` with a
    /// `.journal` extension).
    pub fn new(path: impl Into<PathBuf>) -> FileStore {
        FileStore {
            path: path.into(),
            journal_dir_synced: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The snapshot path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The journal path: the snapshot path with a `.journal` extension.
    pub fn journal_path(&self) -> PathBuf {
        self.path.with_extension("journal")
    }

    /// Fsyncs the snapshot's parent directory so renames and newly
    /// created files are themselves durable, not just their contents.
    fn sync_dir(&self) -> io::Result<()> {
        let dir = match self.path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        fs::File::open(dir)?.sync_all()
    }
}

impl CacheStore for FileStore {
    fn write(&self, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.path.with_extension("tmp");
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &self.path)?;
        self.sync_dir()
    }

    fn read(&self) -> io::Result<Option<Vec<u8>>> {
        match fs::read(&self.path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&self, record: &[u8]) -> io::Result<()> {
        let mut file = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.journal_path())?;
        file.write_all(record)?;
        file.sync_all()?;
        if !self.journal_dir_synced.swap(true, Ordering::Relaxed) {
            // First append since creation/clear: make the directory
            // entry itself durable, or the fsync'd file can vanish.
            self.sync_dir()?;
        }
        Ok(())
    }

    fn read_journal(&self) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.journal_path()) {
            Ok(bytes) if bytes.is_empty() => Ok(None),
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn clear_journal(&self) -> io::Result<()> {
        match fs::remove_file(self.journal_path()) {
            Ok(()) => {
                self.journal_dir_synced.store(false, Ordering::Relaxed);
                self.sync_dir()
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// An in-memory [`CacheStore`] for tests and examples.
#[derive(Debug, Default)]
pub struct MemStore {
    slot: Mutex<Option<Vec<u8>>>,
    journal: Mutex<Vec<u8>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl CacheStore for MemStore {
    fn write(&self, bytes: &[u8]) -> io::Result<()> {
        *self.slot.lock().unwrap() = Some(bytes.to_vec());
        Ok(())
    }

    fn read(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.slot.lock().unwrap().clone())
    }

    fn append(&self, record: &[u8]) -> io::Result<()> {
        self.journal.lock().unwrap().extend_from_slice(record);
        Ok(())
    }

    fn read_journal(&self) -> io::Result<Option<Vec<u8>>> {
        let journal = self.journal.lock().unwrap();
        Ok(if journal.is_empty() {
            None
        } else {
            Some(journal.clone())
        })
    }

    fn clear_journal(&self) -> io::Result<()> {
        self.journal.lock().unwrap().clear();
        Ok(())
    }
}

impl SynthCache {
    /// Persists a snapshot of this cache — entries with their LRU
    /// recency stamps plus the lifetime counters — to `store`.
    ///
    /// Entries are written sorted by key, so saving an unchanged cache
    /// produces byte-identical output (the capacity bound is runtime
    /// configuration and is *not* part of the snapshot).
    ///
    /// # Errors
    ///
    /// Propagates the store's I/O failure.
    pub fn save_to(&self, store: &dyn CacheStore) -> io::Result<()> {
        store.write(&self.to_bytes())
    }

    /// Loads the cache last saved to `store`; an empty store yields an
    /// empty cache. The loaded cache is unbounded — re-apply a bound
    /// with [`SynthCache::set_capacity`].
    ///
    /// # Errors
    ///
    /// The store's I/O failure, or [`io::ErrorKind::InvalidData`] when
    /// the bytes are not a valid snapshot (foreign magic, future
    /// version, or a corrupt record).
    pub fn load_from(store: &dyn CacheStore) -> io::Result<SynthCache> {
        match store.read()? {
            None => Ok(SynthCache::new()),
            Some(bytes) => SynthCache::from_bytes(&bytes),
        }
    }

    /// Encodes the cache into the versioned binary snapshot format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let entries = self.export_entries();
        let (hits, misses, shared_hits, evictions) = self.export_counters();
        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.u64(hits);
        w.u64(misses);
        w.u64(shared_hits);
        w.u64(evictions);
        w.u64(entries.len() as u64);
        for (key, tick, synthesis) in &entries {
            w.u64(*key);
            w.u64(*tick);
            encode_synthesis(&mut w, synthesis);
        }
        w.out
    }

    /// Decodes a snapshot produced by [`SynthCache::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on any malformed byte.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<SynthCache> {
        let (entries, counters) = decode_snapshot(bytes)?;
        Ok(SynthCache::import(entries, counters))
    }

    /// Loads `snapshot + journal replay` from `store` — the crash-safe
    /// startup path. The snapshot's entries are loaded first, then
    /// every journal record is replayed over them (a key present in
    /// both resolves to the journal's record, so replay after a
    /// crashed compaction is idempotent). A torn final record — the
    /// one partial write a mid-append kill can leave — is detected by
    /// its checksum/length and dropped; its byte count is reported in
    /// [`Recovery::torn_bytes`].
    ///
    /// The recovered cache is unbounded and has no journal attached —
    /// re-apply a bound with [`SynthCache::set_capacity`] and re-arm
    /// journaling with [`SynthCache::attach_journal`].
    ///
    /// # Errors
    ///
    /// The store's I/O failure, or [`io::ErrorKind::InvalidData`] when
    /// the snapshot or a complete journal record is corrupt.
    pub fn recover(store: &dyn CacheStore) -> io::Result<Recovery> {
        let (mut entries, counters) = match store.read()? {
            None => (Vec::new(), (0, 0, 0, 0)),
            Some(bytes) => decode_snapshot(&bytes)?,
        };
        let snapshot_entries = entries.len();
        let (replayed, torn_bytes) = match store.read_journal()? {
            None => (Vec::new(), 0),
            Some(bytes) => decode_journal(&bytes)?,
        };
        let journal_entries = replayed.len();
        entries.extend(replayed);
        Ok(Recovery {
            cache: SynthCache::import(entries, counters),
            snapshot_entries,
            journal_entries,
            torn_bytes,
        })
    }

    /// Compacts this cache into `store`: writes a fresh snapshot (which
    /// by construction holds every journaled entry still resident),
    /// then clears the journal. The snapshot replace is atomic and the
    /// journal is cleared only *after* it lands, so a crash anywhere in
    /// between loses nothing — [`SynthCache::recover`] simply replays
    /// entries the new snapshot already contains.
    ///
    /// # Errors
    ///
    /// Propagates the store's I/O failure.
    pub fn compact_to(&self, store: &dyn CacheStore) -> io::Result<()> {
        store.write(&self.to_bytes())?;
        store.clear_journal()
    }
}

/// What [`SynthCache::recover`] reassembled from a store.
#[derive(Debug)]
pub struct Recovery {
    /// The recovered cache (`snapshot + journal replay`).
    pub cache: SynthCache,
    /// Entries loaded from the snapshot.
    pub snapshot_entries: usize,
    /// Journal records replayed over the snapshot.
    pub journal_entries: usize,
    /// Bytes of torn final journal record dropped (0 after any clean
    /// run; nonzero only when the process died mid-append).
    pub torn_bytes: usize,
}

/// Decoded cache entries: `(key, recency tick, synthesis)` triples.
type Entries = Vec<(u64, u64, Synthesis)>;
/// Lifetime counters `(hits, misses, shared_hits, evictions)`.
type Counters = (u64, u64, u64, u64);

fn decode_snapshot(bytes: &[u8]) -> io::Result<(Entries, Counters)> {
    let mut r = Reader { buf: bytes, at: 0 };
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(bad("not a reshuffle cache snapshot (bad magic)"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(bad(format!(
            "unsupported snapshot version {version} (this build reads {VERSION})"
        )));
    }
    let counters = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
    let count = r.u64()?;
    let mut entries = Vec::new();
    for _ in 0..count {
        let key = r.u64()?;
        let tick = r.u64()?;
        let synthesis = decode_synthesis(&mut r)?;
        entries.push((key, tick, synthesis));
    }
    if r.at != bytes.len() {
        return Err(bad("trailing bytes after the last entry"));
    }
    Ok((entries, counters))
}

// --- journal records --------------------------------------------------

/// FNV-1a over the record payload: detects a record whose header and
/// length landed but whose payload bytes are garbage.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1_0000_0000_01b3);
    }
    hash
}

/// Encodes one self-delimiting journal record:
/// `RSHJ · version · payload length · payload checksum · payload`,
/// with the payload `key · tick · synthesis` in the snapshot codec.
pub(crate) fn journal_record(key: u64, tick: u64, synthesis: &Synthesis) -> Vec<u8> {
    let mut payload = Writer::default();
    payload.u64(key);
    payload.u64(tick);
    encode_synthesis(&mut payload, synthesis);
    let mut w = Writer::default();
    w.bytes(JOURNAL_MAGIC);
    w.u32(VERSION);
    w.u32(payload.out.len() as u32);
    w.u64(fnv1a(&payload.out));
    w.bytes(&payload.out);
    w.out
}

/// Decodes a journal byte stream into its `(key, tick, synthesis)`
/// records plus the count of torn trailing bytes dropped.
///
/// Appends are fsync'd one record at a time, so the only partial
/// record a crash can leave is the *last* one: a tail shorter than its
/// own header or declared length is silently dropped (and counted),
/// while a complete record that fails its magic, version, checksum, or
/// payload decode is real corruption and errors out.
pub(crate) fn decode_journal(bytes: &[u8]) -> io::Result<(Entries, usize)> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let rest = &bytes[at..];
        if rest.len() < JOURNAL_HEADER_BYTES {
            return Ok((out, rest.len())); // torn header at the tail
        }
        if &rest[..4] != JOURNAL_MAGIC {
            return Err(bad("not a reshuffle journal record (bad magic)"));
        }
        let version = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(bad(format!(
                "unsupported journal version {version} (this build reads {VERSION})"
            )));
        }
        let len = u32::from_le_bytes(rest[8..12].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(rest[12..20].try_into().unwrap());
        let Some(payload) = rest.get(JOURNAL_HEADER_BYTES..JOURNAL_HEADER_BYTES + len) else {
            return Ok((out, rest.len())); // torn payload at the tail
        };
        if fnv1a(payload) != checksum {
            return Err(bad("journal record checksum mismatch"));
        }
        let mut r = Reader {
            buf: payload,
            at: 0,
        };
        let key = r.u64()?;
        let tick = r.u64()?;
        let synthesis = decode_synthesis(&mut r)?;
        if r.at != payload.len() {
            return Err(bad("trailing bytes inside a journal record"));
        }
        out.push((key, tick, synthesis));
        at += JOURNAL_HEADER_BYTES + len;
    }
    Ok((out, 0))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// --- primitive writer/reader ----------------------------------------

#[derive(Default)]
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    fn strs(&mut self, items: &[String]) {
        self.u32(items.len() as u32);
        for s in items {
            self.str(s);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| bad("truncated snapshot"))?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("non-UTF-8 string"))
    }

    fn strs(&mut self) -> io::Result<Vec<String>> {
        let n = self.u32()? as usize;
        (0..n).map(|_| self.str()).collect()
    }

    /// A capacity for `n` records of at least `min_bytes` each, capped
    /// by the unread input: a corrupt count must not size an allocation
    /// before the bytes it counts were read.
    fn capacity(&self, n: usize, min_bytes: usize) -> usize {
        n.min((self.buf.len() - self.at) / min_bytes)
    }
}

// --- synthesis record -------------------------------------------------

fn encode_synthesis(w: &mut Writer, s: &Synthesis) {
    // The STG goes through the canonical `.g` writer: the textual
    // round-trip is already pinned by the petri crate's tests, and the
    // cache key is stored alongside, so fingerprints are preserved by
    // construction.
    w.str(&write_g(&s.stg));
    encode_sg(w, &s.sg);
    encode_netlist(w, &s.netlist);
    w.strs(&s.inserted);
    w.u32(s.moves.len() as u32);
    for m in &s.moves {
        w.str(&m.label);
        w.u32(m.literals);
        w.f64(m.cycle);
        w.u64(m.csc_conflicts as u64);
    }
    w.strs(&s.expansion);
}

fn decode_synthesis(r: &mut Reader) -> io::Result<Synthesis> {
    let stg = parse_g(&r.str()?).map_err(|e| bad(format!("embedded STG: {e}")))?;
    let sg = decode_sg(r)?;
    let netlist = decode_netlist(r)?;
    let inserted = r.strs()?;
    let num_moves = r.u32()? as usize;
    // label length (4), literals (4), cycle (8), conflicts (8).
    let mut moves = Vec::with_capacity(r.capacity(num_moves, 24));
    for _ in 0..num_moves {
        moves.push(MoveStep {
            label: r.str()?,
            literals: r.u32()?,
            cycle: r.f64()?,
            csc_conflicts: r.u64()? as usize,
        });
    }
    let expansion = r.strs()?;
    Ok(Synthesis {
        stg,
        sg,
        netlist,
        inserted,
        moves,
        expansion,
    })
}

// --- signal tables ----------------------------------------------------

fn encode_signals(w: &mut Writer, signals: &[Signal]) {
    w.u32(signals.len() as u32);
    for s in signals {
        w.str(&s.name);
        w.u8(match s.kind {
            SignalKind::Input => 0,
            SignalKind::Output => 1,
            SignalKind::Internal => 2,
        });
    }
}

fn decode_signals(r: &mut Reader) -> io::Result<Vec<Signal>> {
    let n = r.u32()? as usize;
    // name length (4), kind (1).
    let mut out = Vec::with_capacity(r.capacity(n, 5));
    for _ in 0..n {
        let name = r.str()?;
        let kind = match r.u8()? {
            0 => SignalKind::Input,
            1 => SignalKind::Output,
            2 => SignalKind::Internal,
            k => return Err(bad(format!("unknown signal kind tag {k}"))),
        };
        out.push(Signal { name, kind });
    }
    Ok(out)
}

// --- state graph ------------------------------------------------------

fn encode_sg(w: &mut Writer, sg: &StateGraph) {
    w.str(sg.name());
    encode_signals(w, sg.signals());
    w.u32(sg.events().len() as u32);
    for ev in sg.events() {
        w.str(&ev.label);
        match ev.edge {
            None => w.u8(0),
            Some(edge) => {
                w.u8(1);
                w.u32(edge.signal.index() as u32);
                w.u8(match edge.polarity {
                    Polarity::Rise => 0,
                    Polarity::Fall => 1,
                    Polarity::Toggle => 2,
                });
            }
        }
    }
    w.u32(sg.num_states() as u32);
    for s in sg.state_ids() {
        w.u64(sg.code(s));
        let arcs = sg.succ(s);
        w.u32(arcs.len() as u32);
        for (e, t) in arcs {
            w.u32(e.0);
            w.u32(t);
        }
    }
}

fn decode_sg(r: &mut Reader) -> io::Result<StateGraph> {
    let name = r.str()?;
    let signals = decode_signals(r)?;
    let num_events = r.u32()? as usize;
    // label length (4), edge tag (1).
    let mut events = Vec::with_capacity(r.capacity(num_events, 5));
    for _ in 0..num_events {
        let label = r.str()?;
        let edge = match r.u8()? {
            0 => None,
            1 => {
                let signal = SignalId::from_index(r.u32()? as usize);
                let polarity = match r.u8()? {
                    0 => Polarity::Rise,
                    1 => Polarity::Fall,
                    2 => Polarity::Toggle,
                    p => return Err(bad(format!("unknown polarity tag {p}"))),
                };
                Some(SignalEdge { signal, polarity })
            }
            t => return Err(bad(format!("unknown edge tag {t}"))),
        };
        events.push(EventInfo { label, edge });
    }
    let num_states = r.u32()? as usize;
    // code (8), arc count (4).
    let mut codes = Vec::with_capacity(r.capacity(num_states, 12));
    let mut succ_offsets = Vec::with_capacity(codes.capacity() + 1);
    succ_offsets.push(0);
    let (mut arc_events, mut arc_targets) = (Vec::new(), Vec::new());
    for _ in 0..num_states {
        codes.push(r.u64()?);
        for _ in 0..r.u32()? {
            arc_events.push(EventId(r.u32()?));
            arc_targets.push(r.u32()?);
        }
        succ_offsets.push(arc_events.len() as u32);
    }
    StateGraph::from_csr(
        name,
        signals,
        events,
        codes,
        succ_offsets,
        arc_events,
        arc_targets,
    )
    .map_err(|e| bad(format!("embedded state graph: {e}")))
}

// --- netlist ----------------------------------------------------------

fn encode_netlist(w: &mut Writer, nl: &Netlist) {
    encode_signals(w, nl.signals());
    w.u32(nl.nodes().len() as u32);
    for node in nl.nodes() {
        match node {
            Node::SignalRef(s) => {
                w.u8(0);
                w.u32(s.index() as u32);
            }
            Node::Const(b) => {
                w.u8(1);
                w.u8(*b as u8);
            }
            Node::Gate(g, ins) => {
                w.u8(2);
                w.u8(match g {
                    GateType::Inv => 0,
                    GateType::And2 => 1,
                    GateType::Or2 => 2,
                    GateType::C2 => 3,
                });
                w.u32(ins.len() as u32);
                for n in ins {
                    w.u32(n.0);
                }
            }
            Node::GcLatch { set, reset, holds } => {
                w.u8(3);
                w.u32(set.0);
                w.u32(reset.0);
                w.u32(holds.index() as u32);
            }
        }
    }
    let signals = nl.signals();
    for i in 0..signals.len() {
        match nl.driver(SignalId::from_index(i)) {
            None => w.u8(0),
            Some(n) => {
                w.u8(1);
                w.u32(n.0);
            }
        }
    }
}

fn decode_netlist(r: &mut Reader) -> io::Result<Netlist> {
    let signals = decode_signals(r)?;
    let num_signals = signals.len();
    let mut nl = Netlist::new(signals);
    let num_nodes = r.u32()? as usize;
    for i in 0..num_nodes {
        let node = match r.u8()? {
            0 => {
                let s = r.u32()? as usize;
                if s >= num_signals {
                    return Err(bad("signal reference out of range"));
                }
                Node::SignalRef(SignalId::from_index(s))
            }
            1 => Node::Const(r.u8()? != 0),
            2 => {
                let gate = match r.u8()? {
                    0 => GateType::Inv,
                    1 => GateType::And2,
                    2 => GateType::Or2,
                    3 => GateType::C2,
                    g => return Err(bad(format!("unknown gate tag {g}"))),
                };
                let num_ins = r.u32()? as usize;
                if num_ins != gate.arity() {
                    return Err(bad("gate arity mismatch"));
                }
                let ins: Vec<NodeId> = (0..num_ins)
                    .map(|_| r.u32().map(NodeId))
                    .collect::<io::Result<_>>()?;
                if ins.iter().any(|n| n.0 as usize >= i) {
                    return Err(bad("gate input references a later node"));
                }
                Node::Gate(gate, ins)
            }
            3 => {
                let set = NodeId(r.u32()?);
                let reset = NodeId(r.u32()?);
                let holds = r.u32()? as usize;
                if set.0 as usize >= i || reset.0 as usize >= i || holds >= num_signals {
                    return Err(bad("latch wiring out of range"));
                }
                Node::GcLatch {
                    set,
                    reset,
                    holds: SignalId::from_index(holds),
                }
            }
            t => return Err(bad(format!("unknown node tag {t}"))),
        };
        nl.add(node);
    }
    for s in 0..num_signals {
        if r.u8()? == 1 {
            let n = r.u32()?;
            if n as usize >= num_nodes {
                return Err(bad("driver references a missing node"));
            }
            nl.set_driver(SignalId::from_index(s), NodeId(n))
                .map_err(|e| bad(format!("embedded netlist: {e}")))?;
        }
    }
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pipeline, PipelineOptions};

    const XYZ_G: &str = ".model xyz\n.inputs x\n.outputs y z\n.graph\n\
                         x+ y+\ny+ z+\nz+ x-\nx- y-\ny- z-\nz- x+\n\
                         .marking { <z-,x+> }\n.end\n";

    /// Bytes `f` writes.
    fn encoded(f: impl FnOnce(&mut Writer)) -> usize {
        let mut w = Writer::default();
        f(&mut w);
        w.out.len()
    }

    /// A snapshot of a cache holding one `xyz` entry, that entry, and
    /// the offset of its state graph: past the snapshot header (magic,
    /// version, four counters, entry count), the entry's key and tick,
    /// and the embedded `.g` text.
    fn xyz_snapshot() -> (Vec<u8>, Synthesis, usize) {
        let cache = SynthCache::new();
        Pipeline::from_g(XYZ_G)
            .unwrap()
            .with_cache(&cache)
            .run(&PipelineOptions::default())
            .unwrap();
        let (_, _, s) = cache.export_entries().remove(0);
        let sg_at = 4 + 4 + 4 * 8 + 8 + 8 + 8 + encoded(|w| w.str(&write_g(&s.stg)));
        (cache.to_bytes(), s, sg_at)
    }

    #[test]
    fn hostile_counts_are_invalid_data() {
        let (bytes, s, sg_at) = xyz_snapshot();
        let sg = &s.sg;
        let sg_end = sg_at + encoded(|w| encode_sg(w, sg));
        let signals_at = sg_at + encoded(|w| w.str(sg.name()));
        let events_at = signals_at + encoded(|w| encode_signals(w, sg.signals()));
        let arcs: usize = sg.state_ids().map(|st| 12 + 8 * sg.succ(st).len()).sum();
        let states_at = sg_end - arcs - 4;
        let first_arcs_at = states_at + 4 + 8;
        let moves_at = sg_end
            + encoded(|w| {
                encode_netlist(w, &s.netlist);
                w.strs(&s.inserted);
            });
        let counts = [
            ("signals", signals_at, sg.num_signals()),
            ("events", events_at, sg.num_events()),
            ("states", states_at, sg.num_states()),
            ("arcs of state 0", first_arcs_at, sg.succ(0).len()),
            ("netlist signals", sg_end, s.netlist.signals().len()),
            ("moves", moves_at, s.moves.len()),
        ];
        for (what, at, expected) in counts {
            let found = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            assert_eq!(found as usize, expected, "{what}: wrong offset {at}");
            let mut hostile = bytes.clone();
            hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let err = SynthCache::from_bytes(&hostile).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn an_event_edge_past_the_signal_table_is_invalid_data() {
        // The first event's edge names signal 200 of 3: decoded, the
        // graph would index the signal table out of bounds.
        let (bytes, s, sg_at) = xyz_snapshot();
        let sg = &s.sg;
        let first = &sg.events()[0];
        let edge_at = sg_at
            + encoded(|w| {
                w.str(sg.name());
                encode_signals(w, sg.signals());
                w.u32(0);
                w.str(&first.label);
                w.u8(1);
            });
        let found = u32::from_le_bytes(bytes[edge_at..edge_at + 4].try_into().unwrap());
        assert_eq!(Some(found as usize), first.edge.map(|e| e.signal.index()));
        assert_eq!(sg.num_signals(), 3);
        let mut hostile = bytes;
        hostile[edge_at..edge_at + 4].copy_from_slice(&200u32.to_le_bytes());
        let err = SynthCache::from_bytes(&hostile).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
