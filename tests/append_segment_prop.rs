//! Property tests for durable appends: a table's one file, a `DBWT`
//! header record and `DBWA` data records, each framed and checksummed the
//! same way.
//!
//! `save_table` is the only way to make a table durable and the backend
//! decides what that takes — a whole-file write, or one data record with
//! the rows past what is already durable, appended to the file. Whatever
//! it decided, **`load_table` after any sequence of saves equals the
//! in-memory table** on every cell, the id and the version (the row
//! count). The rest of the file pins the edges of that property: a torn
//! tail record, hostile bytes anywhere in the file, the identity floor, write
//! amplification across compactions, a whole-file write that buffers one
//! column, saves that write nothing, saves that arrive out of order, and
//! the file an evict leaves behind.

mod common;

use common::{boundary_row, boundary_rows, boundary_table, mix, BOUNDARY_ROWS};
use dbwipes::engine::CacheFingerprint;
use dbwipes::storage::persist::{decode_table, encode_table, fnv1a64};
use dbwipes::storage::{
    DataType, Field, FsBackend, Schema, StorageBackend, StorageError, Value, WriteCounters,
    CHUNK_ROWS,
};
use dbwipes::{Catalog, Table};
use dbwipes_server::{SessionManager, StorageRuntime};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

thread_local! {
    /// The largest single allocation this thread has asked for since the
    /// cell was last reset.
    static LARGEST_ALLOCATION: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting per thread the largest request it sees, so
/// a test can bound what a decoder allocates for a hostile length.
struct NotingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the note beside it touches only a const-initialised
// thread-local `Cell<usize>`, which neither allocates nor unwinds.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for NotingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST_ALLOCATION.try_with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LARGEST_ALLOCATION.try_with(|l| l.set(l.get().max(new_size)));
        // SAFETY: the caller's obligations are `System::realloc`'s own.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: NotingAllocator = NotingAllocator;

static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh per-test directory under the OS temp dir; removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("dbwipes-segment-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    /// A fresh directory holding a copy of every file of `other`.
    fn copy_of(other: &Path) -> TempDir {
        let dir = TempDir::new();
        for entry in std::fs::read_dir(other).unwrap().flatten() {
            std::fs::copy(entry.path(), dir.path().join(entry.file_name())).unwrap();
        }
        dir
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn file_of(&self, t: &Table) -> PathBuf {
        self.0.join(format!("t{}.tbl", t.id()))
    }

    fn size_of(&self, name: &str) -> u64 {
        std::fs::metadata(self.0.join(name)).map_or(0, |m| m.len())
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const DTYPES: [DataType; 5] =
    [DataType::Bool, DataType::Int, DataType::Float, DataType::Str, DataType::Timestamp];

/// One cell. Strings draw from a vocabulary that widens with the row
/// index, so later batches introduce values the base dictionary never
/// held; nullable columns are NULL about one row in five.
fn cell(field: &Field, seed: u64, row: usize, col: usize) -> Value {
    let h = mix(seed ^ mix(row as u64 * 31 + col as u64));
    if field.nullable && h % 5 == 0 {
        return Value::Null;
    }
    let k = (h >> 8) as i64;
    match field.dtype {
        DataType::Bool => Value::Bool(k % 2 == 0),
        DataType::Int => Value::Int(k % 1000 - 500),
        DataType::Float => Value::Float((k % 4000) as f64 / 4.0 - 500.0),
        DataType::Str => Value::Str(format!("v{}", k.unsigned_abs() % (3 + row as u64 / 8))),
        DataType::Timestamp => Value::Timestamp(k % 100_000),
        DataType::Null => unreachable!("no column is of the null type"),
    }
}

fn schema_of(columns: &[(usize, bool)]) -> Schema {
    let fields = columns
        .iter()
        .enumerate()
        .map(|(i, &(dtype, nullable))| {
            let dtype = DTYPES[dtype];
            if nullable {
                Field::nullable(format!("c{i}"), dtype)
            } else {
                Field::new(format!("c{i}"), dtype)
            }
        })
        .collect();
    Schema::new(fields).unwrap()
}

/// Appends `n` rows as one batch (for `n` = 0, nothing changes).
fn grow(t: &mut Table, seed: u64, n: usize) {
    let first = t.num_rows();
    let fields = t.schema().fields().to_vec();
    let rows = (first..first + n)
        .map(|row| fields.iter().enumerate().map(|(c, f)| cell(f, seed, row, c)).collect())
        .collect();
    t.push_rows(rows).unwrap();
}

fn assert_identical(durable: &Table, memory: &Table) -> Result<(), String> {
    prop_assert_eq!(durable.name(), memory.name());
    prop_assert_eq!(durable.id(), memory.id());
    prop_assert_eq!(durable.version(), memory.version());
    prop_assert_eq!(durable.schema(), memory.schema());
    prop_assert_eq!(durable.num_rows(), memory.num_rows());
    for rid in memory.row_ids() {
        let (a, b) = (durable.row(rid).unwrap(), memory.row(rid).unwrap());
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                // -0.0 == 0.0 under PartialEq; floats must match by bits.
                (Value::Float(x), Value::Float(y)) => prop_assert_eq!(x.to_bits(), y.to_bits()),
                _ => prop_assert_eq!(x, y),
            }
        }
    }
    Ok(())
}

/// A table's life after its first save: the sizes of its batch appends,
/// empty and one-row batches among them.
fn arbitrary_batches() -> impl Strategy<Value = Vec<usize>> {
    let batch = || 2usize..40;
    let batch =
        prop_oneof![Just(0usize), Just(1usize), batch(), batch(), batch(), batch(), batch()];
    proptest::collection::vec(batch, 16..32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every save, a restarted backend loads exactly the in-memory
    /// table — across segments, compactions, empty and one-row batches,
    /// NULLs and strings new to the base dictionary. An empty batch leaves
    /// the table as it was, so its save writes nothing.
    #[test]
    fn load_equals_memory_after_every_save(
        columns in proptest::collection::vec((0usize..5, any::<bool>()), 1..6),
        batches in arbitrary_batches(),
        seed in any::<u64>(),
    ) {
        let dir = TempDir::new();
        let backend = FsBackend::open(dir.path()).unwrap();
        let mut table = Table::new("t", schema_of(&columns)).unwrap();
        grow(&mut table, seed, 32);
        prop_assert!(backend.save_table(&table).unwrap() > 0);
        for &n in &batches {
            grow(&mut table, seed, n);
            let written = backend.save_table(&table).unwrap();
            prop_assert!((written > 0) == (n > 0), "a batch of {n} wrote {written} bytes");
            // Through the backend that wrote it, and through a restart.
            assert_identical(&backend.load_table(table.id()).unwrap(), &table)?;
            let restarted = FsBackend::open(dir.path()).unwrap();
            assert_identical(&restarted.load_table(table.id()).unwrap(), &table)?;
            let listed = backend.list_manifest().unwrap();
            prop_assert_eq!(listed.entry(table.id()).unwrap().num_rows, table.version());
            // Already durable: a second save writes nothing.
            prop_assert_eq!(backend.save_table(&table).unwrap(), 0);
        }
        let written = backend.write_counters();
        prop_assert!(written.segment_appends >= 1, "{written:?}");
        prop_assert!(written.compactions >= 1, "{written:?}");
        prop_assert_eq!(written.snapshot_saves, 1 + written.compactions);
        prop_assert_eq!(
            written.snapshot_saves + written.segment_appends,
            1 + batches.iter().filter(|&&n| n > 0).count() as u64
        );
    }
}

/// The records of a table file: the range each one spans — 24 frame bytes
/// (magic, format version, body length, frame checksum), the body, the
/// body's checksum — as far as they are whole.
fn records(file: &[u8]) -> Vec<Range<usize>> {
    let mut records = Vec::new();
    let mut at = 0;
    while at + 24 <= file.len() {
        let end =
            at + 24 + u64::from_le_bytes(file[at + 8..at + 16].try_into().unwrap()) as usize + 8;
        if end > file.len() {
            break;
        }
        records.push(at..end);
        at = end;
    }
    records
}

/// A table of every column type with two acknowledged appends after its
/// whole-file write, saved into `dir`. Returns the table after each save.
fn base_and_two_segments(dir: &TempDir) -> [Table; 3] {
    let columns: Vec<(usize, bool)> = (0..5).map(|dtype| (dtype, dtype % 2 == 1)).collect();
    let backend = FsBackend::open(dir.path()).unwrap();
    let mut table = Table::new("t", schema_of(&columns)).unwrap();
    grow(&mut table, 7, 24);
    let states = [0, 3, 4].map(|n| {
        grow(&mut table, 7, n);
        backend.save_table(&table).unwrap();
        table.clone()
    });
    let file = std::fs::read(dir.file_of(&table)).unwrap();
    assert_eq!(records(&file).len(), 4, "a header, the whole rows, two appends");
    assert_eq!(
        backend.write_counters(),
        WriteCounters {
            snapshot_saves: 1,
            segment_appends: 2,
            segment_bytes: (file.len() - records(&file)[2].start) as u64,
            compactions: 0
        }
    );
    states
}

/// What a restart over `dir` loads.
fn recover(dir: &TempDir, t: &Table) -> Result<Table, StorageError> {
    FsBackend::open(dir.path())?.load_table(t.id())
}

#[test]
fn a_torn_tail_is_dropped_and_cut_off_before_the_next_append() {
    let origin = TempDir::new();
    let [_, acked, in_flight] = base_and_two_segments(&origin);
    let file = std::fs::read(origin.file_of(&acked)).unwrap();
    let last_record_at = records(&file)[3].start;

    // The kill lands at every byte of the last record in turn.
    for cut in last_record_at..file.len() {
        let dir = TempDir::copy_of(origin.path());
        std::fs::write(dir.file_of(&acked), &file[..cut]).unwrap();
        // Recover: every acknowledged row, nothing of the torn record.
        let backend = FsBackend::open(dir.path()).unwrap();
        let mut table = backend.load_table(acked.id()).unwrap();
        assert_identical(&table, &acked).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        // Append: the tail is cut off, the new record follows the last
        // whole one.
        grow(&mut table, 99, 5);
        backend.save_table(&table).unwrap();
        assert_eq!(backend.write_counters().segment_appends, 1, "cut at {cut}");
        // Recover again: acknowledged rows and the new ones.
        let again = recover(&dir, &table).unwrap();
        assert_identical(&again, &table).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
    }
    // The whole record, untouched, is the second append.
    assert_identical(&recover(&origin, &acked).unwrap(), &in_flight).unwrap();
}

#[test]
fn hostile_log_bytes_are_corrupt_or_a_truncated_tail_never_a_panic() {
    let origin = TempDir::new();
    let states = base_and_two_segments(&origin);
    let t = &states[0];
    let file = std::fs::read(origin.file_of(t)).unwrap();
    let dir = TempDir::copy_of(origin.path());
    let load = |bytes: &[u8]| {
        std::fs::write(dir.file_of(t), bytes).unwrap();
        recover(&dir, t)
    };
    let is_a_durable_prefix =
        |loaded: &Table| states.iter().any(|s| s.version() == loaded.version());

    // Every byte is under a checksum: any flip is corruption, wherever.
    for at in 0..file.len() {
        let mut bad = file.clone();
        bad[at] ^= 0x40;
        let outcome = load(&bad);
        assert!(matches!(outcome, Err(StorageError::Corrupt(_))), "flip at {at}: {outcome:?}");
    }
    // A cut inside the whole-file write leaves the file behind its
    // manifest entry: corruption. A cut after it is a torn tail: the whole
    // records before it load.
    let whole = records(&file)[2].start;
    for cut in 0..file.len() {
        match load(&file[..cut]) {
            Err(StorageError::Corrupt(_)) if cut < whole => {}
            Ok(loaded) if cut >= whole => {
                assert!(is_a_durable_prefix(&loaded), "cut at {cut}");
                assert!(loaded.num_rows() < states[2].num_rows(), "cut at {cut}");
            }
            other => panic!("cut at {cut}: {:?}", other.map(|t| t.num_rows())),
        }
    }
    // Lengths and ids that promise more than the file holds, with the
    // checksums made to agree so the decoder gets to see them. The first
    // appended record starts at `whole`: 24 frame bytes, then id,
    // first_row, rows, columns, and the columns themselves.
    let frame = whole + 24;
    let body_len = records(&file)[2].len() - 24 - 8;
    for at in frame..(frame + body_len - 7) {
        for hostile in [u64::MAX, 1 << 40, body_len as u64 + 1] {
            let mut bad = file.clone();
            bad[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
            let sum = fnv1a64(&bad[frame..frame + body_len]);
            bad[frame + body_len..frame + body_len + 8].copy_from_slice(&sum.to_le_bytes());
            // A patched value cell is a different valid table; a patched
            // length is corruption. Either way: a verdict, not a panic.
            if let Err(e) = load(&bad) {
                assert!(matches!(e, StorageError::Corrupt(_)), "{hostile:#x} at {at}: {e}");
            }
        }
    }
    // The frame's own length: beyond the file it reads as a torn tail,
    // short of the body it fails the body checksum.
    for hostile in [u64::MAX, 1 << 40, file.len() as u64, body_len as u64 - 1, 0] {
        let mut bad = file.clone();
        bad[whole + 8..whole + 16].copy_from_slice(&hostile.to_le_bytes());
        let sum = fnv1a64(&bad[whole..whole + 16]);
        bad[whole + 16..whole + 24].copy_from_slice(&sum.to_le_bytes());
        match load(&bad) {
            Ok(loaded) => assert_eq!(loaded.version(), states[0].version(), "{hostile:#x}"),
            Err(e) => assert!(matches!(e, StorageError::Corrupt(_)), "{hostile:#x}: {e}"),
        }
    }
    // Records of another table, whole and well-formed, are not ours.
    let other = TempDir::new();
    let [stranger, ..] = base_and_two_segments(&other);
    let theirs = std::fs::read(other.file_of(&stranger)).unwrap();
    let outcome = load(&[&file[..whole], &theirs[records(&theirs)[2].start..]].concat());
    assert!(matches!(outcome, Err(StorageError::Corrupt(_))), "{outcome:?}");
}

/// Only checksum-verified ids raise the identity floor: reopening a data
/// directory whose table file has any one byte flipped, and trying to load
/// it, leaves the next `Table::new` id where it was — up to the ids the
/// other tests of this binary draw meanwhile.
#[test]
fn a_flipped_byte_in_a_table_file_never_moves_the_identity_floor() {
    const DRAWN_MEANWHILE: u64 = 1 << 16;
    let origin = TempDir::new();
    let [.., t] = base_and_two_segments(&origin);
    let file = std::fs::read(origin.file_of(&t)).unwrap();
    let dir = TempDir::copy_of(origin.path());
    let next_id = || Table::new("probe", Schema::of(&[("x", DataType::Int)])).unwrap().id();
    for at in 0..file.len() {
        let mut bad = file.clone();
        bad[at] ^= 0xff;
        std::fs::write(dir.file_of(&t), &bad).unwrap();
        let before = next_id();
        assert!(recover(&dir, &t).is_err(), "flip at {at}");
        let after = next_id();
        assert!(
            after - before < DRAWN_MEANWHILE,
            "flip at {at} moved the floor {before} -> {after}"
        );
    }
}

#[test]
fn two_thousand_appends_write_at_most_four_bytes_per_byte_appended() {
    let dir = TempDir::new();
    let backend = FsBackend::open(dir.path()).unwrap();
    let mut table = Table::new("t", schema_of(&[(1, false), (2, false)])).unwrap();
    grow(&mut table, 1, 256);
    backend.save_table(&table).unwrap();
    let file = format!("t{}.tbl", table.id());
    let start = dir.size_of(&file);
    let mut written = 0;
    for _ in 0..2_000 {
        let (before, whole) = (dir.size_of(&file), backend.write_counters().snapshot_saves);
        grow(&mut table, 1, 256);
        backend.save_table(&table).unwrap();
        written += if backend.write_counters().snapshot_saves == whole {
            dir.size_of(&file) - before // one record appended
        } else {
            dir.size_of(&file) + dir.size_of("MANIFEST.bin") // a whole-file write and its manifest
        };
    }
    let appended = dir.size_of(&file) - start;
    let counters = backend.write_counters();
    assert!(counters.compactions >= 5, "the appends must have been folded in: {counters:?}");
    let listed = backend.list_manifest().unwrap();
    let whole = FsBackend::open(dir.path()).unwrap().list_manifest().unwrap();
    let (tip, whole) = (listed.entries[0].bytes, whole.entries[0].bytes);
    assert!(tip - whole < whole, "what was appended stays smaller than the whole-file write");
    let amplification = written as f64 / appended as f64;
    assert!(amplification <= 4.0, "{written} bytes written for {appended} appended");
    assert_identical(&recover(&dir, &table).unwrap(), &table).unwrap();
}

/// FNV-1a of `bytes` with `ids` — a table's id, a process-global draw
/// that differs from run to run, and the checksums of the bodies that hold
/// it — read as zeros.
fn fnv_without_ids(bytes: &[u8], ids: &[Range<usize>]) -> u64 {
    let mut bytes = bytes.to_vec();
    for at in ids {
        bytes[at.clone()].fill(0);
    }
    fnv1a64(&bytes)
}

/// Where the records of a table file whose name is `name_len` bytes long
/// keep its id: the header's after the name, each data record's at the
/// start of its body; and every body's checksum.
fn ids_of(file: &[u8], name_len: usize) -> Vec<Range<usize>> {
    let mut ids = Vec::new();
    for (i, record) in records(file).into_iter().enumerate() {
        let body = record.start + 24;
        let id = if i == 0 { body + 8 + name_len..body + 16 + name_len } else { body..body + 8 };
        ids.extend([id, record.end - 8..record.end]);
    }
    ids
}

/// The chunk layout is invisible on disk, in both directions: the fixed
/// multi-chunk table round-trips through a whole-file image, appended
/// records that end at, start at and straddle a chunk boundary replay to
/// the in-memory table, and the bytes of both are the bytes the flat
/// layout wrote. The constants were first computed at the commit before
/// columns had chunks, by this code with `CHUNK_ROWS` spelled `1 << 14`,
/// and recomputed once per format since: `DBWT_PIN` hashes the image of
/// the header record and one data record over every row, `DBWA_PINS` the
/// records appended after each file's whole-file write, with the table id
/// and the body checksums read as zeros. Format 5 was checked against
/// format 4 on the same tables: each record is its format-4 counterpart
/// without the data record's 8-byte version stamp, with the frame's
/// format version, body length and both checksums recomputed.
#[test]
fn chunk_boundaries_do_not_show_on_disk() {
    let table = boundary_table(BOUNDARY_ROWS);
    let image = encode_table(&table);
    assert_identical(&decode_table(&image).unwrap(), &table).unwrap();
    assert_eq!(
        fnv_without_ids(&image, &ids_of(&image, table.name().len())),
        DBWT_PIN,
        "a whole-file image of the multi-chunk table is not the bytes the parent commit writes"
    );

    let mut appended = Vec::new();
    for boundary in [CHUNK_ROWS, 2 * CHUNK_ROWS] {
        // Each list: the rows of the whole-file write, then where each
        // append ends.
        let straddling = [boundary - 100, boundary - 1, boundary + 3, boundary + 20];
        let abutting = [boundary - 100, boundary, boundary + 5];
        for cuts in [&straddling[..], &abutting[..]] {
            let dir = TempDir::new();
            let backend = FsBackend::open(dir.path()).unwrap();
            let mut grown = boundary_table(cuts[0]);
            backend.save_table(&grown).unwrap();
            for &end in &cuts[1..] {
                grown.push_rows(boundary_rows(grown.num_rows()..end)).unwrap();
                backend.save_table(&grown).unwrap();
                assert_identical(&backend.load_table(grown.id()).unwrap(), &grown).unwrap();
                assert_identical(&recover(&dir, &grown).unwrap(), &grown).unwrap();
            }
            assert_eq!(backend.write_counters().segment_appends, cuts.len() as u64 - 1);
            let file = std::fs::read(dir.file_of(&grown)).unwrap();
            let ids = ids_of(&file, grown.name().len());
            let whole = records(&file)[2].start;
            let ids: Vec<_> = ids
                .iter()
                .filter(|at| at.start >= whole)
                .map(|at| at.start - whole..at.end - whole)
                .collect();
            appended.push(fnv_without_ids(&file[whole..], &ids));
        }
    }
    assert_eq!(appended, DBWA_PINS, "appended records are not the bytes the parent commit writes");
}

const DBWT_PIN: u64 = 0xe593_c056_a9b7_292e;
const DBWA_PINS: [u64; 4] =
    [0x3e4f_5f11_92fc_f288, 0x73b0_9a9c_2a8c_464e, 0xa005_7055_33a4_05f6, 0x37fb_c710_516e_4426];

/// What a walk over a table file image finds: every record, every length
/// or count field with the range of bytes whose checksum covers it — a
/// frame's first sixteen bytes or a record's body, either way followed
/// right away by the checksum — and the offsets worth a closer look: the
/// edges of every field, frame and vector, and the byte where a vector
/// crosses into the column's next chunk.
#[derive(Default)]
struct FileLayout {
    records: Vec<Range<usize>>,
    lengths: Vec<(usize, Range<usize>)>,
    edges: Vec<usize>,
}

fn walk_records(image: &[u8]) -> FileLayout {
    let word = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let mut layout = FileLayout { records: records(image), ..FileLayout::default() };
    assert_eq!(layout.records.len(), 2, "a header record and one data record");
    assert_eq!(layout.records[1].end, image.len());
    for record in layout.records.clone() {
        layout.lengths.push((record.start + 8, record.start..record.start + 16));
        layout.edges.extend([record.start, record.start + 24, record.end - 8, record.end]);
    }
    let (header, data) = (&layout.records[0], &layout.records[1]);
    let (header_body, body) = (header.start + 24..header.end - 8, data.start + 24..data.end - 8);
    // A vector of `rows` entries of `bits` bits each, from `at`.
    let vector = |layout: &mut FileLayout, at: usize, rows: usize, bits: usize| {
        layout.edges.push(at);
        layout
            .edges
            .extend((1..=rows / CHUNK_ROWS).map(|chunk| at + chunk * CHUNK_ROWS * bits / 8));
        at + (rows * bits).div_ceil(8)
    };
    // Header: name, id, fields.
    let mut at = header_body.start;
    layout.lengths.push((at, header_body.clone()));
    at += 8 + word(at) + 8;
    layout.lengths.push((at, header_body.clone()));
    let fields = word(at);
    at += 8;
    let mut dtypes = Vec::new();
    for _ in 0..fields {
        layout.lengths.push((at, header_body.clone()));
        at += 8 + word(at);
        dtypes.push(image[at]);
        at += 2;
    }
    assert_eq!(at, header_body.end, "the walk and the encoder disagree on the header");
    // Data: id, first row, row count, column count, columns.
    at = body.start + 8;
    for _ in 0..3 {
        layout.lengths.push((at, body.clone()));
        at += 8;
    }
    for dtype in dtypes {
        // The dtype tag, the row count, the validity vector.
        layout.edges.push(at);
        at += 1;
        layout.lengths.push((at, body.clone()));
        at += 8;
        layout.lengths.push((at, body.clone()));
        at = vector(&mut layout, at + 8, word(at), 1);
        match dtype {
            1 => {
                layout.lengths.push((at, body.clone()));
                at = vector(&mut layout, at + 8, word(at), 1);
            }
            4 => {
                layout.lengths.push((at, body.clone()));
                let entries = word(at);
                at += 8;
                for _ in 0..entries {
                    layout.lengths.push((at, body.clone()));
                    at += 8 + word(at);
                }
                layout.lengths.push((at, body.clone()));
                at = vector(&mut layout, at + 8, word(at), 32);
            }
            _ => {
                layout.lengths.push((at, body.clone()));
                at = vector(&mut layout, at + 8, word(at), 64);
            }
        }
    }
    assert_eq!(at, body.end, "the walk and the encoder disagree on the data record");
    layout.edges.extend(layout.lengths.iter().map(|(at, _)| *at));
    layout
}

/// Flips a bit of, and cuts the image at, every offset of `visit`. Every
/// byte of the image is under a checksum — the header, the ids and the
/// frames included — so each flip is `Corrupt`, and so is each cut.
fn assert_flips_and_cuts_are_refused(image: &mut [u8], visit: &[usize]) {
    for &at in visit {
        image[at] ^= 0x40;
        let outcome = decode_table(image);
        image[at] ^= 0x40;
        assert!(
            matches!(outcome, Err(StorageError::Corrupt(_))),
            "flip at {at}: {:?}",
            outcome.map(|t| t.num_rows())
        );
    }
    for &cut in visit {
        let outcome = decode_table(&image[..cut]);
        assert!(matches!(outcome, Err(StorageError::Corrupt(_))), "cut at {cut}");
    }
}

/// The file decoder under hostile bytes. On the five-type image, whose
/// every vector spans three chunks and which is near a megabyte, flips and
/// cuts visit every byte of the header record, every byte near an edge of
/// the layout ([`walk_records`]) and every 1999th byte between; on the
/// image of its `flag` column alone over one boundary — six kilobytes —
/// they visit every byte there is. Then, on the five-type image again,
/// every length and count field lies — with the checksum made to agree,
/// so the decoder gets to see it — and is `Corrupt` before anything is
/// allocated for it.
#[test]
fn hostile_table_image_bytes_are_corrupt_never_a_panic_or_a_huge_allocation() {
    let mut image = encode_table(&boundary_table(BOUNDARY_ROWS));
    // Honest bytes first: the allocator is noting, and what the decoder
    // asks for is chunks — the widest, 24-byte `String`s — not columns.
    LARGEST_ALLOCATION.with(|l| l.set(0));
    decode_table(&image).unwrap();
    let largest = LARGEST_ALLOCATION.with(Cell::get);
    assert!((CHUNK_ROWS * 8..=CHUNK_ROWS * 24).contains(&largest), "{largest} bytes at once");
    let layout = walk_records(&image);
    let mut visit: Vec<usize> = (0..image.len()).step_by(1999).collect();
    visit.extend(layout.records[0].clone());
    visit.extend(layout.edges.iter().flat_map(|&edge| edge.saturating_sub(1)..edge + 9));
    visit.retain(|&at| at < image.len());
    visit.sort_unstable();
    visit.dedup();
    assert_flips_and_cuts_are_refused(&mut image, &visit);

    let mut narrow = Table::new("m", Schema::of(&[("flag", DataType::Bool)])).unwrap();
    let flags = (0..CHUNK_ROWS + 17).map(|row| vec![boundary_row(row).swap_remove(3)]);
    narrow.push_rows(flags.collect()).unwrap();
    let mut narrow = encode_table(&narrow);
    let every_byte: Vec<usize> = (0..narrow.len()).collect();
    assert!(every_byte.len() < 8 << 10, "{} bytes", every_byte.len());
    assert_flips_and_cuts_are_refused(&mut narrow, &every_byte);

    assert!(layout.lengths.len() > 60, "{} length fields", layout.lengths.len());
    for (at, covered) in &layout.lengths {
        let (at, covered) = (*at, covered.clone());
        let honest: [u8; 8] = image[at..at + 8].try_into().unwrap();
        for hostile in [u64::MAX, 1 << 40, u64::from_le_bytes(honest) + 1] {
            let mut bad = image.clone();
            bad[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
            let sum = fnv1a64(&bad[covered.clone()]);
            bad[covered.end..covered.end + 8].copy_from_slice(&sum.to_le_bytes());
            LARGEST_ALLOCATION.with(|l| l.set(0));
            let outcome = decode_table(&bad);
            let largest = LARGEST_ALLOCATION.with(Cell::get);
            assert!(
                matches!(outcome, Err(StorageError::Corrupt(_))),
                "{hostile:#x} at {at}: {:?}",
                outcome.map(|t| t.num_rows())
            );
            assert!(largest <= image.len(), "{hostile:#x} at {at} allocated {largest} bytes");
        }
    }
}

/// A whole-file write streams: the largest single allocation it makes is
/// one column's encoding, never the image of the table.
#[test]
fn a_whole_file_write_buffers_a_column_not_the_table() {
    let columns: Vec<(usize, bool)> = (0..8).map(|c| (1 + c % 2, c >= 4)).collect();
    let mut table = Table::new("wide", schema_of(&columns)).unwrap();
    grow(&mut table, 5, 3 * CHUNK_ROWS + 100);
    let dir = TempDir::new();
    let backend = FsBackend::open(dir.path()).unwrap();
    LARGEST_ALLOCATION.with(|l| l.set(0));
    let written = backend.save_table(&table).unwrap();
    let largest = LARGEST_ALLOCATION.with(Cell::get) as u64;
    assert_eq!(written, dir.size_of(&format!("t{}.tbl", table.id())));
    assert!(largest < written / 2, "{largest} bytes at once for a {written}-byte file");
}

fn runtime_over(dir: &TempDir) -> Arc<StorageRuntime> {
    Arc::new(StorageRuntime::open(dir.path()).unwrap())
}

fn small_batch(seed: u64, n: usize) -> Vec<Vec<Value>> {
    (0..n).map(|i| vec![Value::Int(seed as i64), Value::Float(i as f64 / 2.0)]).collect()
}

fn readings() -> Table {
    let mut t = Table::new("readings", schema_of(&[(1, false), (2, true)])).unwrap();
    grow(&mut t, 3, 500);
    t
}

/// Every file of a data directory with its bytes.
fn snapshot_of(dir: &TempDir) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.path())
        .unwrap()
        .flatten()
        .map(|e| (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap()))
        .collect();
    files.sort();
    files
}

#[test]
fn a_flush_after_appends_and_a_restore_of_a_bare_base_write_nothing() {
    let dir = TempDir::new();
    let runtime = runtime_over(&dir);
    let manager = SessionManager::new(Catalog::new());
    manager.attach_storage(Arc::clone(&runtime));
    manager.register_table(readings());
    for batch in 0..3 {
        assert!(manager.stream_append("readings", small_batch(batch, 16)).unwrap().durable);
    }
    let (files, counters) = (snapshot_of(&dir), runtime.counters());
    assert_eq!((counters.snapshot_saves, counters.segment_appends), (1, 3));
    assert_eq!(manager.flush_storage(), 0, "every append was durable before its ack");
    assert_eq!(snapshot_of(&dir), files);
    assert_eq!(runtime.counters(), counters);

    // A file of one whole-file write and its manifest restores unchanged,
    // and flushing what was restored writes nothing.
    let bare = TempDir::new();
    let table = readings();
    FsBackend::open(bare.path()).unwrap().save_table(&table).unwrap();
    let files = snapshot_of(&bare);
    let names: Vec<String> = files.iter().map(|(name, _)| name.clone()).collect();
    assert_eq!(names, ["MANIFEST.bin".to_string(), format!("t{}.tbl", table.id())]);
    let runtime = runtime_over(&bare);
    let restored = runtime.restore_catalog().unwrap();
    assert_identical(restored.table("readings").unwrap(), &table).unwrap();
    let manager = SessionManager::new(restored);
    manager.attach_storage(Arc::clone(&runtime));
    assert_eq!(manager.flush_storage(), 0);
    assert_eq!(snapshot_of(&bare), files);
}

#[test]
fn evict_and_re_registration_remove_the_table_file() {
    let dir = TempDir::new();
    let backend = FsBackend::open(dir.path()).unwrap();
    let mut t = readings();
    backend.save_table(&t).unwrap();
    grow(&mut t, 3, 8);
    backend.save_table(&t).unwrap();
    assert!(dir.file_of(&t).exists());
    backend.evict(t.id()).unwrap();
    assert_eq!(snapshot_of(&dir).len(), 1, "only the (empty) manifest is left");

    let runtime = runtime_over(&dir);
    let manager = SessionManager::new(Catalog::new());
    manager.attach_storage(Arc::clone(&runtime));
    let first = readings();
    let first_file = dir.file_of(&first);
    manager.register_table(first);
    manager.stream_append("readings", small_batch(0, 8)).unwrap();
    assert!(first_file.exists());
    // Same name, new identity: the old table's file goes.
    let second = readings();
    let second_file = format!("t{}.tbl", second.id());
    manager.register_table(second);
    assert!(!first_file.exists());
    let names: Vec<String> = snapshot_of(&dir).into_iter().map(|(name, _)| name).collect();
    assert_eq!(names, ["MANIFEST.bin".to_string(), second_file]);
}

#[test]
fn concurrent_appends_are_all_durable_whatever_order_their_saves_run_in() {
    const THREADS: u64 = 4;
    const APPENDS: usize = 50;
    let dir = TempDir::new();
    let manager = Arc::new(SessionManager::new(Catalog::new()));
    manager.attach_storage(runtime_over(&dir));
    manager.register_table(readings());
    // `stream_append` releases the catalog lock before it saves, so the
    // four writers' saves reach the backend in any order.
    let start = Arc::new(Barrier::new(THREADS as usize));
    let writers: Vec<_> = (0..THREADS)
        .map(|w| {
            let (manager, start) = (Arc::clone(&manager), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..APPENDS {
                    let report = manager.stream_append("readings", small_batch(w, 3)).unwrap();
                    assert!(report.durable);
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer thread");
    }
    let session = manager.session(manager.open_session()).unwrap();
    let memory = session.lock().unwrap().dashboard().backend().catalog().table_arc("readings");
    let memory = memory.unwrap();
    assert_eq!(memory.num_rows(), 500 + THREADS as usize * APPENDS * 3);
    // No flush, no shutdown: what the acks promised is what a restart has.
    let restored = runtime_over(&dir).restore_catalog().unwrap();
    assert_identical(restored.table("readings").unwrap(), &memory).unwrap();
}

/// A restart keeps every cache key: the restored table has the id and the
/// version (its row count) it had, so the fingerprint of a statement over
/// it is the one minted before the restart.
#[test]
fn a_restored_table_keeps_its_cache_fingerprint() {
    let dir = TempDir::new();
    let manager = SessionManager::new(Catalog::new());
    manager.attach_storage(runtime_over(&dir));
    manager.register_table(readings());
    for batch in 0..3 {
        assert!(manager.stream_append("readings", small_batch(batch, 5)).unwrap().durable);
    }
    let stmt = dbwipes::parse_select("SELECT c0, avg(c1) AS a FROM readings GROUP BY c0").unwrap();
    let session = manager.session(manager.open_session()).unwrap();
    let before = session.lock().unwrap().dashboard().backend().catalog().table_arc("readings");
    let before = CacheFingerprint::of(&before.unwrap(), &stmt);
    let restored = runtime_over(&dir).restore_catalog().unwrap();
    let after = CacheFingerprint::of(restored.table("readings").unwrap(), &stmt);
    assert_eq!(after, before);
    assert_eq!(after.version, 515);
}
