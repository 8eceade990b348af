//! Deterministic storage fault injection for chaos tests.
//!
//! A [`FaultInjectingBackend`] wraps any [`StorageBackend`] and injects
//! failures into the *write* path (`save_table`) according to a scripted
//! [`FaultPlan`]. Reads always pass through untouched — recovery code is
//! exercised against real persisted bytes, while the write path sees
//! exactly the failures the plan scripts.
//!
//! Every write attempt (process-wide per backend, 1-based) is matched
//! against the plan's clauses in order; the first matching clause fires.
//! Because the decision is a pure function of the attempt number and the
//! per-target flaky history, a failing test reproduces exactly from its
//! plan. A plan is built clause by clause — [`FaultPlan::every`],
//! [`FaultPlan::at`] and [`FaultPlan::range`], each with the
//! [`FaultKind`] it injects:
//!
//! ```
//! use dbwipes_storage::{FaultKind, FaultPlan};
//!
//! // Every third write fails with a transient fault, except attempt 4,
//! // which reports a full disk.
//! let plan = FaultPlan::default().at(4, FaultKind::Enospc).every(3, FaultKind::Io);
//! ```

use crate::error::StorageError;
use crate::persist::{append_at, Manifest, PendingWrite, StorageBackend, WriteCounters};
use crate::table::Table;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What a firing clause does to the write it intercepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail with a transient I/O error.
    Io,
    /// Fail with a permanent out-of-space error.
    Enospc,
    /// Crash the write after this many bytes, leaving them behind when the
    /// inner backend exposes a directory: a truncated whole table file, as
    /// a power cut mid-`write(2)` leaves one, or a truncated last record.
    Torn(usize),
    /// Fail the first attempt per distinct target, then succeed.
    Flaky,
}

/// When a clause fires, in terms of the backend's 1-based global write
/// attempt counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// Attempts n, 2n, 3n, ...
    Every(u64),
    /// Exactly attempt n.
    At(u64),
    /// Attempts a..=b inclusive.
    Range(u64, u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Clause {
    trigger: Trigger,
    kind: FaultKind,
}

/// A deterministic fault schedule: clauses tried in the order they were
/// added (see the module docs). The default plan never fires.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    clauses: Vec<Clause>,
}

impl FaultPlan {
    /// Adds a clause firing on attempts `n`, `2n`, `3n`, … A zero `n`
    /// would never fire, and is a programmer error.
    pub fn every(self, n: u64, kind: FaultKind) -> FaultPlan {
        assert!(n > 0, "a fault every 0 writes would never fire");
        self.with(Trigger::Every(n), kind)
    }

    /// Adds a clause firing on exactly attempt `n`.
    pub fn at(self, n: u64, kind: FaultKind) -> FaultPlan {
        self.with(Trigger::At(n), kind)
    }

    /// Adds a clause firing on attempts `first..=last`. A range that ends
    /// before it starts is a programmer error.
    pub fn range(self, first: u64, last: u64, kind: FaultKind) -> FaultPlan {
        assert!(first <= last, "fault range {first}..={last} ends before it starts");
        self.with(Trigger::Range(first, last), kind)
    }

    fn with(mut self, trigger: Trigger, kind: FaultKind) -> FaultPlan {
        self.clauses.push(Clause { trigger, kind });
        self
    }

    /// The fault (if any) scheduled for 1-based write `attempt`. Pure:
    /// the same plan and attempt always decide the same way.
    fn fault_for(&self, attempt: u64) -> Option<FaultKind> {
        self.clauses
            .iter()
            .find(|c| match c.trigger {
                Trigger::Every(n) => attempt % n == 0,
                Trigger::At(n) => attempt == n,
                Trigger::Range(a, b) => (a..=b).contains(&attempt),
            })
            .map(|c| c.kind)
    }
}

/// A [`StorageBackend`] decorator that injects scripted faults into the
/// write path. See the module docs.
#[derive(Debug)]
pub struct FaultInjectingBackend {
    inner: Box<dyn StorageBackend>,
    plan: FaultPlan,
    /// When the inner backend is a filesystem directory, torn writes
    /// leave a literally truncated artifact here.
    torn_dir: Option<PathBuf>,
    /// Global 1-based write attempt counter.
    writes: AtomicU64,
    /// Writes that were failed by the plan.
    injected: AtomicU64,
    /// Targets whose first (flaky) attempt has already been burned.
    flaky_seen: Mutex<HashMap<String, u64>>,
}

impl FaultInjectingBackend {
    /// Wraps an arbitrary backend. Torn faults report the error but
    /// cannot leave a truncated artifact (use [`Self::with_torn_dir`] or
    /// wrap an [`FsBackend`](crate::FsBackend) whose directory you pass).
    pub fn new(inner: Box<dyn StorageBackend>, plan: FaultPlan) -> FaultInjectingBackend {
        FaultInjectingBackend {
            inner,
            plan,
            torn_dir: None,
            writes: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            flaky_seen: Mutex::new(HashMap::new()),
        }
    }

    /// Like [`Self::new`], but torn table writes additionally leave the
    /// truncated write in `dir`, the inner backend's directory: a
    /// `t<id>.tbl` whose whole-file write was cut short, simulating a power
    /// cut during `write(2)` that bypassed the atomic rename, or one that
    /// ends in half an appended record. Recovery code must survive a file
    /// that holds less than its manifest entry and a torn last record, not
    /// just a missing file.
    pub fn with_torn_dir(
        inner: Box<dyn StorageBackend>,
        plan: FaultPlan,
        dir: impl Into<PathBuf>,
    ) -> FaultInjectingBackend {
        let mut backend = FaultInjectingBackend::new(inner, plan);
        backend.torn_dir = Some(dir.into());
        backend
    }

    /// Write attempts seen so far (injected or not).
    pub fn writes_attempted(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Writes the plan failed.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Decides the fate of one write attempt against `target`. Returns
    /// `Ok(())` when the write should proceed, or the scripted error. `pending` describes the file write
    /// the attempt would perform; it is asked for only when a torn fault
    /// fires and has a directory to leave its artifact in.
    fn intercept(
        &self,
        target: &str,
        pending: impl FnOnce() -> Option<PendingWrite>,
    ) -> Result<(), StorageError> {
        let attempt = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        let Some(kind) = self.plan.fault_for(attempt) else { return Ok(()) };
        match kind {
            FaultKind::Io => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(StorageError::Io(format!(
                    "injected transient fault on write #{attempt} ({target})"
                )))
            }
            FaultKind::Enospc => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(StorageError::Io(format!(
                    "injected fault on write #{attempt} ({target}): \
                     No space left on device (os error 28)"
                )))
            }
            FaultKind::Torn(k) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                if let Some((dir, write)) = self.torn_dir.as_ref().zip(pending()) {
                    let torn = &write.bytes[..k.min(write.bytes.len())];
                    let path = dir.join(&write.file);
                    let _ = match write.append_at {
                        Some(at) => append_at(&path, at, torn),
                        None => std::fs::write(&path, torn),
                    };
                }
                Err(StorageError::Io(format!(
                    "injected torn write on #{attempt} ({target}): crashed after {k} bytes"
                )))
            }
            FaultKind::Flaky => {
                let mut seen = self.flaky_seen.lock().unwrap_or_else(|poison| poison.into_inner());
                let tries = seen.entry(target.to_string()).or_insert(0);
                *tries += 1;
                if *tries == 1 {
                    self.injected.fetch_add(1, Ordering::Relaxed);
                    Err(StorageError::Io(format!(
                        "injected flaky fault on write #{attempt} ({target}): \
                         retry will succeed"
                    )))
                } else {
                    Ok(())
                }
            }
        }
    }
}

impl StorageBackend for FaultInjectingBackend {
    fn save_table(&self, table: &Table) -> Result<u64, StorageError> {
        // One target per table, whichever write the save makes.
        self.intercept(&format!("t{}", table.id()), || self.inner.pending_write(table))?;
        self.inner.save_table(table)
    }

    fn load_table(&self, table_id: u64) -> Result<Table, StorageError> {
        self.inner.load_table(table_id)
    }

    fn list_manifest(&self) -> Result<Manifest, StorageError> {
        self.inner.list_manifest()
    }

    fn evict(&self, table_id: u64) -> Result<(), StorageError> {
        self.inner.evict(table_id)
    }

    fn bytes_on_disk(&self) -> Result<u64, StorageError> {
        self.inner.bytes_on_disk()
    }

    fn write_counters(&self) -> WriteCounters {
        self.inner.write_counters()
    }

    fn pending_write(&self, table: &Table) -> Option<PendingWrite> {
        self.inner.pending_write(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::FsBackend;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("dbwipes-faults-{}-{n}", std::process::id()));
            fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn small_table() -> Table {
        let mut t = Table::new(
            "readings",
            Schema::of(&[("sensorid", DataType::Int), ("temp", DataType::Float)]),
        )
        .unwrap();
        for i in 0..32i64 {
            t.push_row(vec![Value::Int(i % 4), Value::Float(20.0 + i as f64)]).unwrap();
        }
        t
    }

    fn faulty(dir: &Path, plan: FaultPlan) -> FaultInjectingBackend {
        let inner = FsBackend::open(dir).unwrap();
        FaultInjectingBackend::with_torn_dir(Box::new(inner), plan, dir)
    }

    #[test]
    fn the_first_matching_clause_decides() {
        let plan = FaultPlan::default().at(4, FaultKind::Enospc).every(3, FaultKind::Io).range(
            10,
            12,
            FaultKind::Torn(16),
        );
        let fates: Vec<_> = (1..=13).map(|attempt| plan.fault_for(attempt)).collect();
        let (io, torn) = (Some(FaultKind::Io), Some(FaultKind::Torn(16)));
        let expected = [
            None,
            None,
            io,
            Some(FaultKind::Enospc),
            None,
            io,
            None,
            None,
            io,
            torn,
            torn,
            io,
            None,
        ];
        assert_eq!(fates, expected);
        assert_eq!(FaultPlan::default().fault_for(1), None);
    }

    #[test]
    #[should_panic(expected = "never fire")]
    fn a_fault_every_zero_writes_is_refused() {
        let _ = FaultPlan::default().every(0, FaultKind::Io);
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn an_inverted_fault_range_is_refused() {
        let _ = FaultPlan::default().range(9, 3, FaultKind::Io);
    }

    #[test]
    fn every_nth_write_fails_deterministically() {
        let dir = TempDir::new();
        let backend = faulty(dir.path(), FaultPlan::default().every(3, FaultKind::Io));
        let t = small_table();
        let mut outcomes = Vec::new();
        for _ in 0..9 {
            outcomes.push(backend.save_table(&t).is_ok());
        }
        assert_eq!(outcomes, vec![true, true, false, true, true, false, true, true, false]);
        assert_eq!(backend.writes_attempted(), 9);
        assert_eq!(backend.faults_injected(), 3);
        // The injected error is transient: a retry (attempt 10) succeeds.
        assert!(backend.save_table(&t).is_ok());
    }

    #[test]
    fn enospc_is_permanent_and_io_is_transient() {
        let dir = TempDir::new();
        let backend =
            faulty(dir.path(), FaultPlan::default().at(1, FaultKind::Io).at(2, FaultKind::Enospc));
        let t = small_table();
        let io = backend.save_table(&t).unwrap_err();
        assert!(io.is_transient(), "plain io fault should be retryable: {io}");
        let enospc = backend.save_table(&t).unwrap_err();
        assert!(!enospc.is_transient(), "enospc must be permanent: {enospc}");
        assert!(enospc.to_string().contains("No space left"));
    }

    #[test]
    fn torn_whole_file_write_leaves_a_truncated_file_that_fails_decode() {
        let dir = TempDir::new();
        let t = small_table();
        FsBackend::open(dir.path()).unwrap().save_table(&t).unwrap();
        let whole = fs::read(dir.path().join(format!("t{}.tbl", t.id()))).unwrap();
        assert!(whole.len() > 16);

        // A backend that has not read the file rewrites it whole, so the
        // torn write replaces it.
        let backend = faulty(dir.path(), FaultPlan::default().at(1, FaultKind::Torn(16)));
        let mut t2 = t.clone();
        t2.push_row(vec![Value::Int(0), Value::Float(0.5)]).unwrap();
        let err = backend.save_table(&t2).unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        let torn = fs::read(dir.path().join(format!("t{}.tbl", t.id()))).unwrap();
        assert_eq!(torn, whole[..16], "the torn artifact is literally truncated");
        assert!(crate::persist::decode_table(&torn).is_err(), "torn bytes must not decode");
        // The manifest still references the pre-crash state; a recovery
        // that trusts checksums will reject the torn file instead of
        // serving half a table.
        assert!(backend.load_table(t.id()).is_err());
    }

    #[test]
    fn torn_segment_write_leaves_a_tail_that_recovery_drops_and_the_next_save_replaces() {
        let dir = TempDir::new();
        let t = small_table();
        let backend = faulty(dir.path(), FaultPlan::default().range(2, 3, FaultKind::Torn(40)));
        backend.save_table(&t).unwrap();
        let file = dir.path().join(format!("t{}.tbl", t.id()));
        let whole = fs::metadata(&file).unwrap().len();

        // An append writes a data record, so the torn write lands past the
        // file's durable end; a second torn attempt replaces the first
        // tail, it does not pile up.
        let mut t2 = t.clone();
        t2.push_row(vec![Value::Int(9), Value::Float(9.0)]).unwrap();
        for _ in 0..2 {
            let err = backend.save_table(&t2).unwrap_err();
            assert!(err.to_string().contains("torn write"), "{err}");
            assert_eq!(fs::metadata(&file).unwrap().len(), whole + 40);
        }
        // A restart now sees the pre-append table: the tail is not a row.
        let reopened = FsBackend::open(dir.path()).unwrap();
        assert_eq!(reopened.load_table(t.id()).unwrap().num_rows(), t.num_rows());

        // The next save that lands cuts the tail off and writes the whole
        // backlog — both appended rows — as one record.
        t2.push_row(vec![Value::Int(10), Value::Float(10.0)]).unwrap();
        backend.save_table(&t2).unwrap();
        assert_eq!(backend.write_counters().segment_appends, 1);
        let restored = FsBackend::open(dir.path()).unwrap().load_table(t.id()).unwrap();
        assert_eq!(restored.num_rows(), t.num_rows() + 2);
        assert_eq!(restored.version(), t2.version());
    }

    #[test]
    fn flaky_fails_once_per_target_then_succeeds() {
        let dir = TempDir::new();
        let backend = faulty(dir.path(), FaultPlan::default().every(1, FaultKind::Flaky));
        let t = small_table();
        assert!(backend.save_table(&t).is_err(), "first attempt on the table fails");
        assert!(backend.save_table(&t).is_ok(), "retry on the same target succeeds");
        let other = small_table();
        assert!(backend.save_table(&other).is_err(), "another table is another target");
        assert!(backend.save_table(&other).is_ok());
    }

    #[test]
    fn reads_pass_through_even_when_every_write_fails() {
        let dir = TempDir::new();
        let t = small_table();
        // Persist cleanly first, then wrap with an always-fail plan.
        FsBackend::open(dir.path()).unwrap().save_table(&t).unwrap();
        let backend = faulty(dir.path(), FaultPlan::default().every(1, FaultKind::Io));
        assert!(backend.save_table(&t).is_err());
        let restored = backend.load_table(t.id()).unwrap();
        assert_eq!(restored.num_rows(), t.num_rows());
        assert_eq!(backend.list_manifest().unwrap().entries.len(), 1);
        assert!(backend.bytes_on_disk().unwrap() > 0);
    }
}
