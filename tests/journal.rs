//! The cache journal, the one persisted form a damaged or hostile file
//! can reach. A version-3 journal appended before the snapshot format
//! was removed recovers unchanged, and seeded mutations of the corpus's
//! journal records end in a decoded record or `InvalidData`: never a
//! panic, and never an allocation sized by a count the decoder has not
//! checked against the bytes it holds.
//!
//! `cargo test --release --test journal -- --ignored` runs the larger
//! mutation sweep.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use reshuffle::{
    canonical_fingerprint, parse_g, CacheStore, ExpansionOptions, MemStore, Pipeline,
    PipelineOptions, ReduceOptions, SynthCache,
};
use reshuffle_bench::examples;

/// The system allocator, remembering per thread the largest single
/// request since the last [`largest_allocation`] call.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

/// The largest allocation this thread requested since the last call.
fn largest_allocation() -> usize {
    LARGEST.with(|l| l.replace(0))
}

// SAFETY: every method hands the caller's pointer, layout and size to
// `System` unchanged, so `System`'s guarantees are the caller's; `note`
// only touches a const-initialized thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Bytes of record header: magic, version, payload length, checksum.
const HEADER: usize = 20;

/// FNV-1a, the journal's payload checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3)
    })
}

/// Splits a journal into its records by their length words.
fn records(journal: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut rest = journal;
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest[8..12].try_into().unwrap()) as usize;
        let (record, tail) = rest.split_at(HEADER + len);
        out.push(record);
        rest = tail;
    }
    out
}

/// A record's payload around its embedded `.g` text: the key and tick
/// words, the text, and everything after it.
fn split_at_g(record: &[u8]) -> (&[u8], &str, &[u8]) {
    let payload = &record[HEADER..];
    let len = u32::from_le_bytes(payload[16..20].try_into().unwrap()) as usize;
    let text = std::str::from_utf8(&payload[20..20 + len]).unwrap();
    (&payload[..16], text, &payload[20 + len..])
}

/// A record around `payload` with `header`'s magic and version, its
/// length and checksum sealed to match.
fn sealed(header: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = header[..8].to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[test]
fn a_version_3_journal_from_the_two_file_layout_recovers_unchanged() {
    // Appended by a server of the two-file layout (its `PATH.journal`)
    // for the xyz spec and for mfig1 with reduce, then killed.
    let journal = include_bytes!("data/xyz-mfig1-v3.journal");
    let store = MemStore::new();
    store.append(journal).unwrap();
    let recovery = SynthCache::recover(&store).unwrap();
    assert_eq!((recovery.journal_entries, recovery.torn_bytes), (2, 0));

    // Rewritten, the same records come back, by key: byte for byte but
    // for the `.g` text, which the writer renders in the parsed STG's
    // numbering, and which describes the same STG.
    let rewritten = MemStore::new();
    recovery.cache.compact_to(&rewritten).unwrap();
    let rewritten = rewritten.read_journal().unwrap().unwrap();
    let mut want = records(journal);
    want.sort_by_key(|r| u64::from_le_bytes(r[HEADER..HEADER + 8].try_into().unwrap()));
    let got = records(&rewritten);
    assert_eq!(got.len(), want.len());
    for (got, want) in got.iter().zip(&want) {
        let ((got_key, got_g, got_rest), (want_key, want_g, want_rest)) =
            (split_at_g(got), split_at_g(want));
        assert_eq!((got_key, got_rest), (want_key, want_rest), "{want_g}");
        let fingerprint = |g| canonical_fingerprint(&parse_g(g).unwrap());
        assert_eq!(fingerprint(got_g), fingerprint(want_g), "{want_g}");
    }

    // And they answer the runs that wrote them.
    let runs = [
        (
            examples::XYZ_G,
            PipelineOptions::new(),
            "y = x\nz = y\n",
            vec![],
        ),
        (
            examples::MFIG1_G,
            PipelineOptions::new().with_reduce(ReduceOptions::default()),
            "Req = Ack'\n",
            vec!["Ack- -> Req+"],
        ),
    ];
    for (src, opts, netlist, moves) in runs {
        let done = Pipeline::from_g(src)
            .unwrap()
            .with_cache(&recovery.cache)
            .run(&opts)
            .unwrap();
        assert_eq!(done.diagnostics().cache_hits, 1, "{netlist}");
        assert_eq!(done.netlist().describe(), netlist);
        assert_eq!(done.synthesis().move_labels().collect::<Vec<_>>(), moves);
    }
}

/// The journal records of the corpus in all four pipeline modes.
fn corpus_records() -> Vec<Vec<u8>> {
    let store = Arc::new(MemStore::new());
    let cache = SynthCache::new();
    cache.attach_journal(store.clone());
    let modes = [
        PipelineOptions::new(),
        PipelineOptions::new().with_reduce(ReduceOptions::default()),
        PipelineOptions::new().with_expand(ExpansionOptions::default()),
        PipelineOptions::new()
            .with_expand(ExpansionOptions::default())
            .with_reduce(ReduceOptions::default()),
    ];
    for (_, src) in examples::ALL {
        for opts in &modes {
            // Partial specs fail without expansion and cache nothing.
            let _ = Pipeline::from_g(src).unwrap().with_cache(&cache).run(opts);
        }
    }
    let journal = store.read_journal().unwrap().unwrap();
    records(&journal).into_iter().map(<[u8]>::to_vec).collect()
}

/// A splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One seeded edit of a record payload: a bit flip, a byte overwrite,
/// a truncation, inserted bytes, or a `u32::MAX` word (a length or
/// count, where it lands on one).
fn mutate(rng: &mut Rng, payload: &mut Vec<u8>) -> String {
    let at = rng.below(payload.len());
    match rng.below(5) {
        0 => {
            let bit = rng.below(8);
            payload[at] ^= 1 << bit;
            format!("bit {bit} of byte {at} flipped")
        }
        1 => {
            let byte = rng.next() as u8;
            payload[at] = byte;
            format!("byte {at} set to {byte}")
        }
        2 => {
            payload.truncate(at);
            format!("cut to {at} bytes")
        }
        3 => {
            let n = 1 + rng.below(8);
            let bytes: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
            payload.splice(at..at, bytes);
            format!("{n} bytes inserted at {at}")
        }
        _ => {
            let at = at.min(payload.len() - 4);
            payload[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            format!("u32::MAX written at {at}")
        }
    }
}

/// Recovers `cases` seeded mutations of the corpus's records, one or
/// two edits each, with every record re-sealed so the edits reach the
/// payload decoder. Returns how many decoded and how many were
/// `InvalidData`; panics on any other outcome.
fn mutation_sweep(seed: u64, cases: usize) -> (usize, usize) {
    let records = corpus_records();
    let mut rng = Rng(seed);
    let (mut decoded, mut invalid) = (0, 0);
    for case in 0..cases {
        let record = &records[rng.below(records.len())];
        let mut payload = record[HEADER..].to_vec();
        let mut edits = vec![mutate(&mut rng, &mut payload)];
        if rng.below(2) == 0 && payload.len() >= 4 {
            edits.push(mutate(&mut rng, &mut payload));
        }
        let store = MemStore::new();
        store.append(&sealed(record, &payload)).unwrap();
        largest_allocation();
        let outcome = catch_unwind(AssertUnwindSafe(|| SynthCache::recover(&store)));
        let largest = largest_allocation();
        let at = format!("case {case} ({} record bytes, {edits:?})", record.len());
        match outcome {
            Ok(Ok(recovery)) => {
                assert_eq!(recovery.journal_entries, 1, "{at}");
                decoded += 1;
            }
            Ok(Err(e)) if e.kind() == ErrorKind::InvalidData => invalid += 1,
            Ok(Err(e)) => panic!("{at}: {e} is not InvalidData"),
            Err(_) => panic!("{at}: the decoder panicked"),
        }
        // A count sizes an allocation only after being capped by the
        // bytes left to read.
        let bound = 64 * record.len() + (64 << 10);
        assert!(largest <= bound, "{at}: a {largest}-byte allocation");
    }
    (decoded, invalid)
}

#[test]
fn mutated_journal_records_decode_or_are_invalid_data() {
    let (decoded, invalid) = mutation_sweep(0x5eed_0001, 3_000);
    eprintln!("3,000 mutated records: {decoded} decoded, {invalid} InvalidData");
    assert!(
        decoded > 0 && invalid > 0,
        "{decoded} decoded, {invalid} invalid"
    );
}

#[test]
#[ignore = "200,000 mutated records: a few seconds in release"]
fn many_mutated_journal_records_decode_or_are_invalid_data() {
    let (decoded, invalid) = mutation_sweep(0x5eed_0002, 200_000);
    eprintln!("200,000 mutated records: {decoded} decoded, {invalid} InvalidData");
    assert!(
        decoded > 0 && invalid > 0,
        "{decoded} decoded, {invalid} invalid"
    );
}
