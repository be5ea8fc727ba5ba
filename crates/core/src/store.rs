//! Persistent storage for [`SynthCache`]: a versioned binary journal
//! plus the [`CacheStore`] trait that abstracts *where* its bytes live.
//!
//! The codec is deliberately dependency-free (the build container has
//! no network, so no serde): little-endian scalars, length-prefixed
//! strings, and structural records for each cached
//! [`Synthesis`](crate::Synthesis) — the STG as canonical `.g` text
//! (the round-trip-pinned writer), the state graph as its codes and
//! arcs, and the netlist as its node table.
//!
//! The journal is the cache's one persisted form: a sequence of
//! self-delimiting records, each holding one entry with its cache key
//! and LRU recency stamp. Two writers produce it:
//!
//! - every insert into a cache with an attached journal appends one
//!   record ([`CacheStore::append`]), durable before the append
//!   returns, so a process killed at any point loses no completed
//!   synthesis;
//! - [`SynthCache::compact_to`] replaces the whole journal atomically
//!   ([`CacheStore::replace_journal`]) with one record per live entry,
//!   sorted by key, so compacting an unchanged cache writes the same
//!   bytes and a clean shutdown leaves the smallest journal that
//!   recovers the same cache.
//!
//! [`SynthCache::recover`] replays the records in order; a key recorded
//! twice resolves to its last record.
//!
//! Every record opens with a magic plus a format version and carries a
//! checksum: foreign or future bytes are rejected with
//! [`io::ErrorKind::InvalidData`] instead of being misread. A torn tail
//! (the one partially written record a mid-append crash can leave) is
//! detected and dropped, while corruption anywhere else is an error.

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

/// Magic bytes opening every journal record: `RSHJ` ("reshuffle
/// journal").
const JOURNAL_MAGIC: &[u8; 4] = b"RSHJ";
/// Current journal format version. Version 2 dropped the per-state
/// markings of the embedded state graph, and version 3 its
/// initial-state word: the graph's states are stored in its one
/// canonical numbering, rooted at state 0. An older record is rejected
/// rather than misread (a version-2 graph was written without the
/// numbering rule).
const VERSION: u32 = 3;
/// Bytes of journal-record header ahead of the payload:
/// magic (4) + version (4) + payload length (4) + checksum (8).
const JOURNAL_HEADER_BYTES: usize = 20;

/// Where a [`SynthCache`]'s journal lives.
///
/// A store holds one journal: [`CacheStore::append`] adds a durable
/// record, [`CacheStore::read_journal`] returns every byte,
/// and [`CacheStore::replace_journal`] swaps in new contents
/// atomically. The codec itself lives on [`SynthCache`]
/// ([`attach_journal`](SynthCache::attach_journal) /
/// [`recover`](SynthCache::recover) /
/// [`compact_to`](SynthCache::compact_to)); stores only move opaque
/// bytes, so a new backend (a database blob, an object store) is one
/// small impl away.
///
/// # Worked example
///
/// Journal a cache as it fills, then serve a whole run from the cache
/// recovered from that journal — what a synthesis service does after a
/// restart, clean or not:
///
/// ```
/// use std::sync::Arc;
///
/// use reshuffle::{CacheStore, MemStore, Pipeline, PipelineOptions, SynthCache};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = ".model xyz\n.inputs x\n.outputs y z\n.graph\n\
///            x+ y+\ny+ z+\nz+ x-\nx- y-\ny- z-\nz- x+\n\
///            .marking { <z-,x+> }\n.end\n";
/// let opts = PipelineOptions::default();
///
/// // One real run fills the cache and appends its record.
/// let store = Arc::new(MemStore::new()); // swap in `FileStore` for a real path
/// let cache = SynthCache::new();
/// cache.attach_journal(store.clone());
/// let first = Pipeline::from_g(src)?.with_cache(&cache).run(&opts)?;
/// assert!(store.read_journal()?.is_some());
///
/// // A fresh process replays the journal: the identical key hits.
/// let reloaded = SynthCache::recover(&*store)?.cache;
/// assert_eq!(reloaded.len(), 1);
/// let replay = Pipeline::from_g(src)?.with_cache(&reloaded).run(&opts)?;
/// assert_eq!(replay.diagnostics().cache_hits, 1);
/// assert_eq!(
///     first.netlist().describe(),
///     replay.netlist().describe(),
/// );
///
/// // A clean shutdown rewrites the journal: one record per entry.
/// reloaded.compact_to(&*store)?;
/// assert_eq!(SynthCache::recover(&*store)?.journal_entries, 1);
/// # Ok(())
/// # }
/// ```
pub trait CacheStore {
    /// Appends one record to the journal, durably: when this returns
    /// `Ok`, the record survives an immediate process kill or power
    /// loss (for [`FileStore`], the data is fsync'd before returning).
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O failure.
    fn append(&self, record: &[u8]) -> io::Result<()>;

    /// Returns every journal byte, or `None` when the journal is empty
    /// or was never written (a missing file is not an error).
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O failure.
    fn read_journal(&self) -> io::Result<Option<Vec<u8>>>;

    /// Replaces the whole journal with `bytes`, atomically and
    /// durably: a crash at any point leaves either the old journal or
    /// the new one, never a mix.
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O failure. A failure before the new
    /// contents take the journal's place leaves the old journal whole.
    fn replace_journal(&self, bytes: &[u8]) -> io::Result<()>;
}

/// A [`CacheStore`] backed by one journal file on disk.
///
/// Appends fsync the file before returning (plus the parent directory
/// once, when the file is first created). A replace writes a `.tmp`
/// sibling, fsyncs it, renames it over the journal and fsyncs the
/// directory — so a crash or power loss mid-rewrite leaves the old
/// journal whole, and a completed rewrite cannot vanish. A missing file
/// reads as `None`.
#[derive(Debug, Clone)]
pub struct FileStore {
    path: PathBuf,
    /// Whether the parent directory was fsync'd since this store first
    /// wrote the journal; shared across clones so the once-per-creation
    /// directory sync survives handle cloning.
    dir_synced: Arc<AtomicBool>,
}

impl FileStore {
    /// A store whose journal is the file at `path`.
    pub fn new(path: impl Into<PathBuf>) -> FileStore {
        FileStore {
            path: path.into(),
            dir_synced: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The journal file: the path the store was created with.
    pub fn journal_path(&self) -> PathBuf {
        self.path.clone()
    }

    /// Fsyncs the journal's parent directory so renames and newly
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
    fn append(&self, record: &[u8]) -> io::Result<()> {
        let mut file = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&self.path)?;
        file.write_all(record)?;
        file.sync_all()?;
        if !self.dir_synced.swap(true, Ordering::Relaxed) {
            // First append of this store: make the directory entry
            // itself durable, or the fsync'd file can vanish.
            self.sync_dir()?;
        }
        Ok(())
    }

    fn read_journal(&self) -> io::Result<Option<Vec<u8>>> {
        match fs::read(&self.path) {
            Ok(bytes) if bytes.is_empty() => Ok(None),
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn replace_journal(&self, bytes: &[u8]) -> io::Result<()> {
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let written = fs::File::create(&tmp).and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        });
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::rename(&tmp, &self.path)?;
        self.sync_dir()?;
        self.dir_synced.store(true, Ordering::Relaxed);
        Ok(())
    }
}

/// An in-memory [`CacheStore`] for tests and examples.
#[derive(Debug, Default)]
pub struct MemStore {
    journal: Mutex<Vec<u8>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl CacheStore for MemStore {
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

    fn replace_journal(&self, bytes: &[u8]) -> io::Result<()> {
        *self.journal.lock().unwrap() = bytes.to_vec();
        Ok(())
    }
}

impl SynthCache {
    /// Replays `store`'s journal — the crash-safe startup path. Records
    /// are applied in order, so a key recorded twice resolves to its
    /// last record. A torn final record — the one partial write a
    /// mid-append kill can leave — is detected by its checksum/length
    /// and dropped; its byte count is reported in
    /// [`Recovery::torn_bytes`].
    ///
    /// The recovered cache is unbounded, its hit/miss/eviction counters
    /// start at 0, and it has no journal attached — re-apply a bound
    /// with [`SynthCache::set_capacity`] and re-arm journaling with
    /// [`SynthCache::attach_journal`].
    ///
    /// # Errors
    ///
    /// The store's I/O failure, or [`io::ErrorKind::InvalidData`] when
    /// a complete journal record is corrupt, foreign or of another
    /// version.
    pub fn recover(store: &dyn CacheStore) -> io::Result<Recovery> {
        let (entries, torn_bytes) = match store.read_journal()? {
            None => (Vec::new(), 0),
            Some(bytes) => decode_journal(&bytes)?,
        };
        Ok(Recovery {
            journal_entries: entries.len(),
            cache: SynthCache::import(entries),
            torn_bytes,
        })
    }
}

/// What [`SynthCache::recover`] reassembled from a store.
#[derive(Debug)]
pub struct Recovery {
    /// The recovered cache.
    pub cache: SynthCache,
    /// Journal records replayed (a key recorded twice counts twice).
    pub journal_entries: usize,
    /// Bytes of torn final journal record dropped (0 after any clean
    /// run; nonzero only when the process died mid-append).
    pub torn_bytes: usize,
}

/// Decoded cache entries: `(key, recency tick, synthesis)` triples.
type Entries = Vec<(u64, u64, Synthesis)>;

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
/// with the payload `key · tick · synthesis`.
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
fn decode_journal(bytes: &[u8]) -> io::Result<(Entries, usize)> {
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
            .ok_or_else(|| bad("truncated journal record"))?;
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

    /// The journal record of one `xyz` run, its synthesis, and the
    /// offset of its state graph: past the record header, the entry's
    /// key and tick, and the embedded `.g` text.
    fn xyz_record() -> (Vec<u8>, Synthesis, usize) {
        let store = Arc::new(MemStore::new());
        let cache = SynthCache::new();
        cache.attach_journal(store.clone());
        Pipeline::from_g(XYZ_G)
            .unwrap()
            .with_cache(&cache)
            .run(&PipelineOptions::default())
            .unwrap();
        let record = store.read_journal().unwrap().unwrap();
        let (_, _, s) = decode_journal(&record).unwrap().0.remove(0);
        let sg_at = JOURNAL_HEADER_BYTES + 8 + 8 + encoded(|w| w.str(&write_g(&s.stg)));
        (record, s, sg_at)
    }

    /// Overwrites the `u32` at `at` and re-seals the record's checksum,
    /// so the edit reaches the payload decoder.
    fn edited(record: &[u8], at: usize, value: u32) -> Vec<u8> {
        let mut out = record.to_vec();
        out[at..at + 4].copy_from_slice(&value.to_le_bytes());
        let checksum = fnv1a(&out[JOURNAL_HEADER_BYTES..]);
        out[12..20].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn hostile_counts_are_invalid_data() {
        let (bytes, s, sg_at) = xyz_record();
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
            let err = decode_journal(&edited(&bytes, at, u32::MAX)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn an_event_edge_past_the_signal_table_is_invalid_data() {
        // The first event's edge names signal 200 of 3: decoded, the
        // graph would index the signal table out of bounds.
        let (bytes, s, sg_at) = xyz_record();
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
        let err = decode_journal(&edited(&bytes, edge_at, 200)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
