//! Property tests for durable appends: the `DBWA` append segment beside
//! the `DBWT` base snapshot.
//!
//! `save_table` is the only way to make a table durable and the backend
//! decides what that takes — a full base, or one segment record with the
//! rows past what is already durable. Whatever it decided, **`load_table`
//! after any sequence of saves equals the in-memory table** on every
//! cell, both epoch stamps, the deletion mask and the row count. The rest
//! of the file pins the edges of that property: a torn tail record, hostile
//! log bytes, the stamp floor, write amplification across compactions,
//! saves that write nothing, saves that arrive out of order, and the files
//! an evict leaves behind.

use dbwipes::storage::persist::fnv1a64;
use dbwipes::storage::{
    DataType, Field, FsBackend, Schema, StorageBackend, StorageError, Value, WriteCounters,
};
use dbwipes::{Catalog, RowId, Table};
use dbwipes_server::{SessionManager, StorageRuntime};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

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

    fn log_of(&self, t: &Table) -> PathBuf {
        self.0.join(format!("t{}.log", t.id()))
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

/// SplitMix64 — cell values are a pure function of (seed, row, column).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

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

/// Appends `n` rows as one batch (one appended stamp, even for `n` = 0).
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
    prop_assert_eq!(durable.epoch(), memory.epoch());
    prop_assert_eq!(durable.schema(), memory.schema());
    prop_assert_eq!(durable.num_rows(), memory.num_rows());
    for rid in memory.all_row_ids() {
        prop_assert_eq!(durable.is_deleted(rid), memory.is_deleted(rid));
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

/// One step of a table's life: a batch append, or — rarely — a soft
/// delete, the structural change that takes a full snapshot.
#[derive(Debug, Clone)]
enum Step {
    Append(usize),
    Delete(usize),
}

fn arbitrary_steps() -> impl Strategy<Value = Vec<Step>> {
    let append = || (2usize..40).prop_map(Step::Append);
    let step = prop_oneof![
        Just(Step::Append(0)),
        Just(Step::Append(1)),
        append(),
        append(),
        append(),
        append(),
        append(),
        (0usize..1000).prop_map(Step::Delete),
    ];
    proptest::collection::vec(step, 16..32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every save, a restarted backend loads exactly the in-memory
    /// table — across segments, compactions, structural changes, empty
    /// and one-row batches, NULLs and strings new to the base dictionary.
    #[test]
    fn load_equals_memory_after_every_save(
        columns in proptest::collection::vec((0usize..5, any::<bool>()), 1..6),
        steps in arbitrary_steps(),
        seed in any::<u64>(),
    ) {
        let dir = TempDir::new();
        let backend = FsBackend::open(dir.path()).unwrap();
        let mut table = Table::new("t", schema_of(&columns)).unwrap();
        grow(&mut table, seed, 32);
        prop_assert!(backend.save_table(&table).unwrap() > 0);
        for step in &steps {
            match *step {
                Step::Append(n) => grow(&mut table, seed, n),
                Step::Delete(row) => table.delete_row(RowId(row % table.num_rows())).unwrap(),
            }
            prop_assert!(backend.save_table(&table).unwrap() > 0, "{step:?} changed the table");
            // Through the backend that wrote it, and through a restart.
            assert_identical(&backend.load_table(table.id()).unwrap(), &table)?;
            let restarted = FsBackend::open(dir.path()).unwrap();
            assert_identical(&restarted.load_table(table.id()).unwrap(), &table)?;
            let listed = backend.list_manifest().unwrap();
            prop_assert_eq!(listed.entry(table.id()).unwrap().epoch, table.epoch());
            // Already durable: a second save writes nothing.
            prop_assert_eq!(backend.save_table(&table).unwrap(), 0);
        }
        let written = backend.write_counters();
        prop_assert!(written.segment_appends >= 1, "{written:?}");
        prop_assert!(written.compactions >= 1, "{written:?}");
        let deletes = steps.iter().filter(|s| matches!(s, Step::Delete(_))).count() as u64;
        prop_assert_eq!(written.snapshot_saves, 1 + deletes + written.compactions);
        prop_assert_eq!(
            written.snapshot_saves + written.segment_appends,
            1 + steps.len() as u64
        );
    }
}

/// A table of every column type with two acknowledged appends in its log,
/// saved into `dir`. Returns the table after each save.
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
    assert_eq!(
        backend.write_counters(),
        WriteCounters {
            snapshot_saves: 1,
            segment_appends: 2,
            segment_bytes: dir.size_of(&format!("t{}.log", table.id())),
            compactions: 0
        }
    );
    states
}

/// Length of the record a log image starts with: 24 frame bytes (magic,
/// format version, body length, frame checksum), the body, its checksum.
fn first_record_len(log: &[u8]) -> usize {
    24 + u64::from_le_bytes(log[8..16].try_into().unwrap()) as usize + 8
}

/// What a restart over `dir` loads.
fn recover(dir: &TempDir, t: &Table) -> Result<Table, StorageError> {
    FsBackend::open(dir.path())?.load_table(t.id())
}

#[test]
fn a_torn_tail_is_dropped_and_cut_off_before_the_next_append() {
    let origin = TempDir::new();
    let [_, acked, in_flight] = base_and_two_segments(&origin);
    let log = std::fs::read(origin.log_of(&acked)).unwrap();
    let last_record_at = first_record_len(&log);
    assert!(last_record_at < log.len());

    // The kill lands at every byte of the last record in turn.
    for cut in last_record_at..log.len() {
        let dir = TempDir::copy_of(origin.path());
        std::fs::write(dir.log_of(&acked), &log[..cut]).unwrap();
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
    let log = std::fs::read(origin.log_of(t)).unwrap();
    let dir = TempDir::copy_of(origin.path());
    let load = |bytes: &[u8]| {
        std::fs::write(dir.log_of(t), bytes).unwrap();
        recover(&dir, t)
    };
    let is_a_durable_prefix = |loaded: &Table| {
        states.iter().any(|s| s.epoch() == loaded.epoch() && s.num_rows() == loaded.num_rows())
    };

    // Every byte is under a checksum: any flip is corruption, wherever.
    for at in 0..log.len() {
        let mut bad = log.clone();
        bad[at] ^= 0x40;
        let outcome = load(&bad);
        assert!(matches!(outcome, Err(StorageError::Corrupt(_))), "flip at {at}: {outcome:?}");
    }
    // Every truncation is a torn tail: the whole records before it load.
    for cut in 0..log.len() {
        let loaded = load(&log[..cut]).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert!(is_a_durable_prefix(&loaded), "cut at {cut}");
        assert!(loaded.num_rows() < states[2].num_rows(), "cut at {cut}");
    }
    // Lengths that promise more than the file holds, with the checksums
    // made to agree so the decoder gets to see them. Record 1 starts at 0:
    // 24 frame bytes, then id, structural, appended, first_row, rows,
    // columns, and the columns themselves. (The stamps are left alone — a
    // huge one would be *restored*, and raise this process's stamp floor.)
    let frame = 24;
    let body_len = first_record_len(&log) - frame - 8;
    for at in (frame + 24)..(frame + body_len - 7) {
        for hostile in [u64::MAX, 1 << 40, body_len as u64 + 1] {
            let mut bad = log.clone();
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
    for hostile in [u64::MAX, 1 << 40, log.len() as u64, body_len as u64 - 1, 0] {
        let mut bad = log.clone();
        bad[8..16].copy_from_slice(&hostile.to_le_bytes());
        let sum = fnv1a64(&bad[..16]);
        bad[16..24].copy_from_slice(&sum.to_le_bytes());
        match load(&bad) {
            Ok(loaded) => assert_eq!(loaded.epoch(), states[0].epoch(), "{hostile:#x}"),
            Err(e) => assert!(matches!(e, StorageError::Corrupt(_)), "{hostile:#x}: {e}"),
        }
    }
    // A record of another table, whole and well-formed, is not ours.
    let other = TempDir::new();
    let [stranger, ..] = base_and_two_segments(&other);
    let outcome = load(&std::fs::read(other.log_of(&stranger)).unwrap());
    assert!(matches!(outcome, Err(StorageError::Corrupt(_))), "{outcome:?}");
}

#[test]
fn open_raises_the_stamp_floor_past_stamps_recorded_only_in_a_segment() {
    let dir = TempDir::new();
    let [.., t] = base_and_two_segments(&dir);
    // Another process wrote the last append: its stamp is far past
    // anything this process has drawn. Only the log records it.
    let far = t.version() + 1_000_000;
    let mut log = std::fs::read(dir.log_of(&t)).unwrap();
    let body = first_record_len(&log) + 24..log.len() - 8;
    log[body.start + 16..body.start + 24].copy_from_slice(&far.to_le_bytes());
    let sum = fnv1a64(&log[body.clone()]);
    log[body.end..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(dir.log_of(&t), &log).unwrap();

    let backend = FsBackend::open(dir.path()).unwrap();
    let minted = Table::new("fresh", Schema::of(&[("x", DataType::Int)])).unwrap();
    assert!(minted.id() > far, "open() alone must raise the floor: {} vs {far}", minted.id());
    let restored = backend.load_table(t.id()).unwrap();
    assert_eq!(restored.version(), far, "the recorded stamp is restored, not re-drawn");
    let manifest = backend.list_manifest().unwrap();
    assert!(manifest.entries.iter().all(|e| minted.id() > e.table_id.max(e.version())));
}

#[test]
fn two_thousand_appends_write_at_most_four_bytes_per_byte_appended() {
    let dir = TempDir::new();
    let backend = FsBackend::open(dir.path()).unwrap();
    let mut table = Table::new("t", schema_of(&[(1, false), (2, false)])).unwrap();
    grow(&mut table, 1, 256);
    backend.save_table(&table).unwrap();
    let (base, log) = (format!("t{}.tbl", table.id()), format!("t{}.log", table.id()));
    let sizes = || (dir.size_of(&base), dir.size_of(&log), dir.size_of("MANIFEST.bin"));
    let start = sizes();
    let mut written = 0;
    for _ in 0..2_000 {
        let before = sizes();
        grow(&mut table, 1, 256);
        backend.save_table(&table).unwrap();
        let after = sizes();
        written += if after.0 == before.0 {
            after.1 - before.1 // one record appended to the log
        } else {
            after.0 + after.2 // a new base and the manifest naming it
        };
    }
    let end = sizes();
    let appended = (end.0 + end.1) - (start.0 + start.1);
    let counters = backend.write_counters();
    assert!(counters.compactions >= 5, "the log must have been folded in: {counters:?}");
    assert!(end.1 < end.0, "the log stays smaller than its base");
    let amplification = written as f64 / appended as f64;
    assert!(amplification <= 4.0, "{written} bytes written for {appended} appended");
    assert_identical(&recover(&dir, &table).unwrap(), &table).unwrap();
}

fn runtime_over(dir: &TempDir) -> Arc<StorageRuntime> {
    // `with_backend`, never `open`: `DBWIPES_FAULT_PLAN` must not leak in.
    Arc::new(StorageRuntime::with_backend(Box::new(FsBackend::open(dir.path()).unwrap())))
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

    // The parent's layout — a base and a manifest, no log — restores
    // unchanged, and flushing what was restored writes nothing.
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
fn evict_and_re_registration_remove_the_log() {
    let dir = TempDir::new();
    let backend = FsBackend::open(dir.path()).unwrap();
    let mut t = readings();
    backend.save_table(&t).unwrap();
    grow(&mut t, 3, 8);
    backend.save_table(&t).unwrap();
    assert!(dir.log_of(&t).exists());
    backend.evict(t.id()).unwrap();
    assert_eq!(snapshot_of(&dir).len(), 1, "only the (empty) manifest is left");

    let runtime = runtime_over(&dir);
    let manager = SessionManager::new(Catalog::new());
    manager.attach_storage(Arc::clone(&runtime));
    let first = readings();
    let first_log = dir.log_of(&first);
    manager.register_table(first);
    manager.stream_append("readings", small_batch(0, 8)).unwrap();
    assert!(first_log.exists());
    // Same name, new identity: the old table's files all go.
    let second = readings();
    let second_base = format!("t{}.tbl", second.id());
    manager.register_table(second);
    assert!(!first_log.exists());
    let names: Vec<String> = snapshot_of(&dir).into_iter().map(|(name, _)| name).collect();
    assert_eq!(names, ["MANIFEST.bin".to_string(), second_base]);
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
